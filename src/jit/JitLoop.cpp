//===- jit/JitLoop.cpp - Tiered runner implementation ---------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "jit/JitLoop.h"

#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

using namespace spice;
using namespace spice::jit;

//===----------------------------------------------------------------------===//
// JitLoopTraits
//===----------------------------------------------------------------------===//

void JitLoopTraits::combine(State &Into, State &&Chunk) const {
  Into.Poisoned |= Chunk.Poisoned;
  const JitFunction &Fn = Unit->Fn;
  // Mirrors SpiceTransform::emitMerge: Into is the earlier chunk, so
  // Min/Max ties keep the earlier value and payload phis follow their
  // primary's take decision.
  std::vector<char> Take(Fn.Reductions.size(), 0);
  for (size_t I = 0; I != Fn.Reductions.size(); ++I) {
    const JitReduction &R = Fn.Reductions[I];
    int64_t &Cur = Into.Frame[R.Reg];
    const int64_t New = Chunk.Frame[R.Reg];
    switch (R.Kind) {
    case analysis::ReductionKind::Sum:
      Cur = evalBinary(JitOp::Add, Cur, New);
      break;
    case analysis::ReductionKind::Product:
      Cur = evalBinary(JitOp::Mul, Cur, New);
      break;
    case analysis::ReductionKind::BitAnd:
      Cur &= New;
      break;
    case analysis::ReductionKind::BitOr:
      Cur |= New;
      break;
    case analysis::ReductionKind::BitXor:
      Cur ^= New;
      break;
    case analysis::ReductionKind::Min:
      Take[I] = New < Cur;
      if (Take[I])
        Cur = New;
      break;
    case analysis::ReductionKind::Max:
      Take[I] = New > Cur;
      if (Take[I])
        Cur = New;
      break;
    case analysis::ReductionKind::MinPayload:
    case analysis::ReductionKind::MaxPayload:
      assert(R.PrimaryIndex >= 0 &&
             static_cast<size_t>(R.PrimaryIndex) < I &&
             "payload reduction must follow its primary");
      if (Take[R.PrimaryIndex])
        Cur = New;
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// JitLoopRunner
//===----------------------------------------------------------------------===//

JitLoopRunner::JitLoopRunner(core::SpiceRuntime &RT, ir::Function &F,
                             vm::Memory &Mem, CodeCache &Cache,
                             core::LoopOptions Opts, JitTierOptions Tier)
    : RT(RT), F(F), Mem(Mem), Cache(Cache), Opts(Opts), Tier(Tier) {
  std::string Why;
  CL = transform::matchCanonicalLoop(F, &Why);
  if (!CL) {
    Refused = true;
    WhyNot = Why;
  } else if (CL->Info.SpeculatedLiveIns.size() > kMaxSpeculatedLiveIns) {
    Refused = true;
    WhyNot = "@" + F.getName() +
             ": more speculated live-ins than a JitLiveIn slot can carry";
  }
}

bool JitLoopRunner::ensureJitted() {
  if (Unit)
    return true;
  if (Refused || !CL)
    return false;
  if (!Tier.ForceJit) {
    if (InterpretedInvocations == 0)
      return false; // Warmup: the profile is still empty.
    if (Profile.fractionIn(CL->L->blocks()) < Tier.HotnessThreshold)
      return false;
  }
  std::string Why;
  Unit = Cache.getOrCompile(*CL, &Why);
  if (!Unit) {
    Refused = true;
    WhyNot = Why;
    return false;
  }
  assert(Unit->Fn.SpecPhiRegs.size() <= kMaxSpeculatedLiveIns &&
         "matcher admitted more live-ins than the runner refused");
  Traits.Unit = Unit.get();
  Traits.MemBase = Mem.data();
  Traits.MemWords = Mem.size();
  Traits.TemplateFrame.assign(Unit->Fn.NumRegs, 0);
  Traits.Deopts = &Deopts;
  Loop.emplace(Traits, RT, Opts);
  return true;
}

std::unique_ptr<JitLoopRunner::EntrySlice>
JitLoopRunner::beginInvocation(const std::vector<int64_t> &Args,
                               JitLiveIn &StartLI) {
  auto S = std::make_unique<EntrySlice>(F, Mem, Args);
  // Entry slice: interpret the preheader (== entry block); its branch
  // into the header commits the phis, so the context then holds every
  // loop-carried start value.
  while (S->TC.currentBlock() != CL->Header) {
    vm::StepResult R = S->TC.step();
    assert(R.Status == vm::StepStatus::Ran &&
           "entry slice finished without reaching the loop header");
    (void)R;
  }
  const JitFunction &Fn = Unit->Fn;
  std::vector<int64_t> &T = Traits.TemplateFrame;
  std::fill(T.begin(), T.end(), 0);
  for (const JitImm &C : Fn.ConstPool)
    T[C.Reg] = C.Value;
  for (const JitBinding &B : Fn.Bindings)
    T[B.Reg] = S->TC.evaluate(B.Src);
  for (const JitReduction &R : Fn.Reductions)
    T[R.Reg] = R.Identity;
  StartLI = JitLiveIn{};
  for (size_t I = 0; I != Fn.SpecPhis.size(); ++I)
    StartLI.V[I] = S->TC.evaluate(Fn.SpecPhis[I]);
  return S;
}

int64_t JitLoopRunner::finishInvocation(EntrySlice &S,
                                        JitLoopTraits::State Merged) {
  const JitFunction &Fn = Unit->Fn;
  // The chunks all started their reductions at identities; fold the true
  // start values in exactly once, with the start state as the earlier
  // side so Min/Max ties resolve to the pre-loop value.
  JitLoopTraits::State Start = Traits.initialState();
  for (const JitReduction &R : Fn.Reductions)
    Start.Frame[R.Reg] = S.TC.evaluate(R.Phi);
  Traits.combine(Start, std::move(Merged));
  // Exit slice: deposit the final reduction values into the phis'
  // registers and let the interpreter finish from the loop exit.
  for (const JitReduction &R : Fn.Reductions)
    S.TC.setValue(R.Phi, Start.Frame[R.Reg]);
  S.TC.jumpTo(CL->Exit);
  vm::StepStatus St = S.TC.run();
  assert(St == vm::StepStatus::Returned && "exit slice did not return");
  (void)St;
  ++JitInvocations;
  return S.TC.getReturnValue();
}

int64_t JitLoopRunner::invoke(const std::vector<int64_t> &Args) {
  if (!ensureJitted())
    return runInterpreted(Args);
  JitLiveIn LI;
  std::unique_ptr<EntrySlice> S = beginInvocation(Args, LI);
  return finishInvocation(*S, Loop->invoke(LI));
}

int64_t JitLoopRunner::Pending::get() {
  if (HasImmediate) {
    HasImmediate = false;
    return Immediate;
  }
  assert(Runner && Slice && Fut && "resolving an empty or consumed Pending");
  JitLoopTraits::State Merged = Fut->get();
  Fut.reset();
  int64_t Ret = Runner->finishInvocation(*Slice, std::move(Merged));
  Slice.reset();
  return Ret;
}

JitLoopRunner::Pending JitLoopRunner::submit(const std::vector<int64_t> &Args) {
  Pending P;
  P.Runner = this;
  if (!ensureJitted()) {
    P.HasImmediate = true;
    P.Immediate = runInterpreted(Args);
    return P;
  }
  P.Slice = beginInvocation(Args, P.Start);
  P.Fut.emplace(Loop->submit(P.Start));
  return P;
}

int64_t JitLoopRunner::invokeSequential(const std::vector<int64_t> &Args) {
  if (!ensureJitted())
    return runInterpreted(Args);
  JitLiveIn LI;
  std::unique_ptr<EntrySlice> S = beginInvocation(Args, LI);
  return finishInvocation(*S, Loop->runSequentialReference(LI));
}

int64_t JitLoopRunner::runInterpreted(const std::vector<int64_t> &Args) {
  vm::ExecutionResult R = vm::runFunction(F, Mem, Args);
  Profile.accumulate(R.BlockCounts);
  ++InterpretedInvocations;
  return R.ReturnValue;
}
