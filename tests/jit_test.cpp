//===- tests/jit_test.cpp - JIT subsystem tests ---------------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The staged JIT: frontend lifting, the pass pipeline, the JIT-IR
// verifier, the closure backend, the code cache (hits, keyed misses,
// eviction, invalidation), tiering promotion, and -- the acceptance bar --
// bit-for-bit equivalence between JIT-compiled loops and the interpreter
// oracle on every IR workload, sequentially and in parallel under forced
// mispredictions at several chunk granularities.
//
//===----------------------------------------------------------------------===//

#include "jit/JitLoop.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "jit/Frontend.h"
#include "jit/Passes.h"
#include "vm/Interpreter.h"
#include "workloads/IRWorkloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace spice;
using namespace spice::jit;

namespace {

//===----------------------------------------------------------------------===//
// Twin-run equivalence harness
//===----------------------------------------------------------------------===//

/// One side of a twin run: a workload instance with its own module,
/// function and memory.
struct Side {
  ir::Module M;
  std::unique_ptr<workloads::IRWorkload> W;
  ir::Function *F = nullptr;
  vm::Memory Mem{1 << 20};

  explicit Side(std::unique_ptr<workloads::IRWorkload> WL)
      : W(std::move(WL)) {
    F = W->build(M);
    Mem.layoutGlobals(M);
    W->initData(Mem);
  }
};

enum class Mode { Sequential, Parallel, Submit };

/// Runs \p Invocations of identically seeded twins -- interpreter oracle
/// vs JIT (ForceJit) -- and demands identical return values and memory
/// digests after every invocation-and-mutation round.
void expectTwinEquivalence(
    const std::function<std::unique_ptr<workloads::IRWorkload>()> &Make,
    core::LoopOptions Opts, Mode M, unsigned Invocations) {
  Side Oracle(Make());
  Side Jit(Make());

  core::SpiceRuntime RT(/*NumThreads=*/4);
  CodeCache Cache;
  JitTierOptions Tier;
  Tier.ForceJit = true;
  JitLoopRunner Runner(RT, *Jit.F, Jit.Mem, Cache, Opts, Tier);
  ASSERT_TRUE(Runner.supported()) << Runner.whyNot();

  for (unsigned I = 0; I != Invocations; ++I) {
    int64_t Want = vm::runFunction(*Oracle.F, Oracle.Mem,
                                   Oracle.W->invocationArgs(Oracle.Mem))
                       .ReturnValue;
    std::vector<int64_t> Args = Jit.W->invocationArgs(Jit.Mem);
    int64_t Got = 0;
    switch (M) {
    case Mode::Sequential:
      Got = Runner.invokeSequential(Args);
      break;
    case Mode::Parallel:
      Got = Runner.invoke(Args);
      break;
    case Mode::Submit: {
      JitLoopRunner::Pending P = Runner.submit(Args);
      Got = P.get();
      break;
    }
    }
    ASSERT_EQ(Got, Want) << Jit.W->name() << " invocation " << I;
    ASSERT_EQ(Jit.W->resultDigest(Jit.Mem), Oracle.W->resultDigest(Oracle.Mem))
        << Jit.W->name() << " memory diverged at invocation " << I;
    Oracle.W->mutate(Oracle.Mem);
    Jit.W->mutate(Jit.Mem);
  }
  EXPECT_TRUE(Runner.jitted()) << Runner.whyNot();
  EXPECT_GT(Runner.tierStats().JitInvocations, 0u);
}

std::unique_ptr<workloads::IRWorkload> makeOtter(unsigned Removals = 0) {
  auto W = std::make_unique<workloads::OtterIR>(96, 11);
  W->InsertsPerInvocation = 3;
  W->RandomRemovalsPerInvocation = Removals;
  return W;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frontend
//===----------------------------------------------------------------------===//

TEST(JitFrontend, LiftsOtterLoop) {
  ir::Module M;
  workloads::OtterIR W(64, 1);
  ir::Function *F = W.build(M);
  std::string Why;
  auto CL = transform::matchCanonicalLoop(*F, &Why);
  ASSERT_NE(CL, nullptr) << Why;
  FrontendResult R = liftLoop(*CL);
  ASSERT_NE(R.Fn, nullptr) << R.Error;
  EXPECT_EQ(R.Fn->SpecPhiRegs.size(), 1u) << "only the cursor is speculated";
  EXPECT_EQ(R.Fn->Reductions.size(), 2u) << "min + argmin payload";
  EXPECT_TRUE(verifyJitFunction(*R.Fn).empty());
  EXPECT_FALSE(R.Fn->Insts.empty());
}

TEST(JitFrontend, LiftsEveryWorkloadLoop) {
  const std::function<std::unique_ptr<workloads::IRWorkload>()> Factories[] = {
      [] { return std::make_unique<workloads::OtterIR>(64, 1); },
      [] { return std::make_unique<workloads::KsIR>(64, 4, 1); },
      [] { return std::make_unique<workloads::McfIR>(64, 1); },
      [] { return std::make_unique<workloads::SjengIR>(64, 1); },
  };
  for (const auto &Make : Factories) {
    ir::Module M;
    auto W = Make();
    ir::Function *F = W->build(M);
    std::string Why;
    auto CL = transform::matchCanonicalLoop(*F, &Why);
    ASSERT_NE(CL, nullptr) << W->name() << ": " << Why;
    FrontendResult R = liftLoop(*CL);
    ASSERT_NE(R.Fn, nullptr) << W->name() << ": " << R.Error;
    std::vector<std::string> Errs = verifyJitFunction(*R.Fn);
    EXPECT_TRUE(Errs.empty()) << W->name() << ": "
                              << (Errs.empty() ? "" : Errs.front());
  }
}

TEST(JitFrontend, RefusesLoopFreeFunction) {
  ir::Module M;
  ir::Function *F = M.createFunction("straight");
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::IRBuilder B(M, Entry);
  B.createRet(B.getInt(7));
  F->renumber();
  std::string Why;
  EXPECT_EQ(transform::matchCanonicalLoop(*F, &Why), nullptr);
  EXPECT_FALSE(Why.empty());
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

TEST(JitPasses, ConstantFoldsImmutableOperands) {
  JitFunction F;
  uint32_t C0 = F.newReg(), C1 = F.newReg(), R2 = F.newReg();
  F.ConstPool.push_back({C0, 20});
  F.ConstPool.push_back({C1, 22});
  F.Insts.push_back({JitOp::Add, static_cast<int32_t>(R2),
                     static_cast<int32_t>(C0), static_cast<int32_t>(C1), -1,
                     0, 0});
  F.Insts.push_back({JitOp::IterEnd, -1, -1, -1, -1, 0, 0});
  ASSERT_TRUE(verifyJitFunction(F).empty());
  EXPECT_TRUE(constantFold(F));
  EXPECT_EQ(F.Insts[0].Op, JitOp::LoadImm);
  EXPECT_EQ(F.Insts[0].Imm, 42);
}

TEST(JitPasses, DeadCodeEliminationDropsUnusedValues) {
  JitFunction F;
  uint32_t C0 = F.newReg(), R1 = F.newReg(), R2 = F.newReg();
  F.ConstPool.push_back({C0, 5});
  // R1 feeds nothing and has no side effects; R2 feeds nothing either.
  F.Insts.push_back({JitOp::Add, static_cast<int32_t>(R1),
                     static_cast<int32_t>(C0), static_cast<int32_t>(C0), -1,
                     0, 0});
  F.Insts.push_back({JitOp::Mul, static_cast<int32_t>(R2),
                     static_cast<int32_t>(R1), static_cast<int32_t>(R1), -1,
                     0, 0});
  F.Insts.push_back({JitOp::IterEnd, -1, -1, -1, -1, 0, 0});
  ASSERT_TRUE(verifyJitFunction(F).empty());
  runDefaultPasses(F);
  ASSERT_EQ(F.Insts.size(), 1u) << "both ALU ops should die";
  EXPECT_EQ(F.Insts[0].Op, JitOp::IterEnd);
}

TEST(JitPasses, ReductionRegistersSurviveDCE) {
  JitFunction F;
  uint32_t C0 = F.newReg(), Acc = F.newReg();
  F.ConstPool.push_back({C0, 1});
  JitReduction R;
  R.Kind = analysis::ReductionKind::Sum;
  R.Reg = Acc;
  F.Reductions.push_back(R);
  F.Insts.push_back({JitOp::Add, static_cast<int32_t>(Acc),
                     static_cast<int32_t>(Acc), static_cast<int32_t>(C0), -1,
                     0, 0});
  F.Insts.push_back({JitOp::IterEnd, -1, -1, -1, -1, 0, 0});
  ASSERT_TRUE(verifyJitFunction(F).empty());
  runDefaultPasses(F);
  ASSERT_EQ(F.Insts.size(), 2u) << "the accumulator update must survive";
  EXPECT_EQ(F.Insts[0].Op, JitOp::Add);
}

TEST(JitPasses, DedupsRedundantGuardsWithinABlock) {
  ir::Module M;
  JitFunction F;
  uint32_t A = F.newReg(), R1 = F.newReg(), R2 = F.newReg();
  F.Bindings.push_back({A, M.getConstant(0)});
  F.Insts.push_back({JitOp::GuardLoad, -1, static_cast<int32_t>(A), -1, -1,
                     0, 0});
  F.Insts.push_back({JitOp::Load, static_cast<int32_t>(R1),
                     static_cast<int32_t>(A), -1, -1, 0, 0});
  F.Insts.push_back({JitOp::GuardLoad, -1, static_cast<int32_t>(A), -1, -1,
                     0, 0});
  F.Insts.push_back({JitOp::Load, static_cast<int32_t>(R2),
                     static_cast<int32_t>(A), -1, -1, 0, 0});
  F.Insts.push_back({JitOp::IterEnd, -1, -1, -1, -1, 0, 0});
  EXPECT_TRUE(dedupGuards(F));
  EXPECT_EQ(F.Insts[2].Op, JitOp::Nop) << "second identical guard is dead";
  EXPECT_EQ(F.Insts[0].Op, JitOp::GuardLoad) << "first guard stays";
  compactNops(F);
  EXPECT_EQ(F.Insts.size(), 4u);
}

//===----------------------------------------------------------------------===//
// JIT-IR verifier
//===----------------------------------------------------------------------===//

TEST(JitVerifier, CatchesMissingTerminator) {
  JitFunction F;
  uint32_t C0 = F.newReg(), R1 = F.newReg();
  F.ConstPool.push_back({C0, 1});
  F.Insts.push_back({JitOp::Copy, static_cast<int32_t>(R1),
                     static_cast<int32_t>(C0), -1, -1, 0, 0});
  EXPECT_FALSE(verifyJitFunction(F).empty());
}

TEST(JitVerifier, CatchesWriteToImmutableRegister) {
  JitFunction F;
  uint32_t C0 = F.newReg();
  F.ConstPool.push_back({C0, 1});
  F.Insts.push_back({JitOp::LoadImm, static_cast<int32_t>(C0), -1, -1, -1,
                     9, 0});
  F.Insts.push_back({JitOp::IterEnd, -1, -1, -1, -1, 0, 0});
  EXPECT_FALSE(verifyJitFunction(F).empty());
}

TEST(JitVerifier, CatchesOutOfRangeRegistersAndTargets) {
  JitFunction F;
  (void)F.newReg();
  F.Insts.push_back({JitOp::Copy, 0, 99, -1, -1, 0, 0}); // Source 99 > regs.
  F.Insts.push_back({JitOp::IterEnd, -1, -1, -1, -1, 0, 0});
  EXPECT_FALSE(verifyJitFunction(F).empty());

  JitFunction G;
  G.Insts.push_back({JitOp::Jmp, -1, -1, -1, -1, 0, 99}); // Target 99.
  EXPECT_FALSE(verifyJitFunction(G).empty());
}

//===----------------------------------------------------------------------===//
// Backend
//===----------------------------------------------------------------------===//

TEST(JitBackend, ExecutesStraightLineSlots) {
  auto F = std::make_unique<JitFunction>();
  uint32_t C0 = F->newReg(), C1 = F->newReg(), R2 = F->newReg();
  F->ConstPool.push_back({C0, 20});
  F->ConstPool.push_back({C1, 22});
  F->Insts.push_back({JitOp::Add, static_cast<int32_t>(R2),
                      static_cast<int32_t>(C0), static_cast<int32_t>(C1), -1,
                      0, 0});
  F->Insts.push_back({JitOp::LoopExit, -1, -1, -1, -1, 0, 0});
  std::shared_ptr<const CompiledUnit> U = lowerToClosures(std::move(F));
  ASSERT_NE(U, nullptr);

  std::vector<int64_t> Frame = {20, 22, 0};
  core::SpecSpace Direct;
  ExecCtx Ctx{Frame.data(), nullptr, 0, &Direct, 1000};
  EXPECT_EQ(execute(*U, Ctx), kRetExit);
  EXPECT_EQ(Frame[2], 42);
}

TEST(JitBackend, FuelExhaustionDeopts) {
  auto F = std::make_unique<JitFunction>();
  F->Insts.push_back({JitOp::Jmp, -1, -1, -1, -1, 0, 0}); // Infinite loop.
  std::shared_ptr<const CompiledUnit> U = lowerToClosures(std::move(F));
  core::SpecSpace Direct;
  ExecCtx Ctx{nullptr, nullptr, 0, &Direct, 64};
  EXPECT_EQ(execute(*U, Ctx), kRetDeopt);
}

TEST(JitBackend, GuardDivCatchesDivisionHazards) {
  ir::Module M;
  auto F = std::make_unique<JitFunction>();
  uint32_t A = F->newReg(), B = F->newReg();
  F->Bindings.push_back({A, M.getConstant(0)});
  F->Bindings.push_back({B, M.getConstant(0)});
  F->Insts.push_back({JitOp::GuardDiv, -1, static_cast<int32_t>(A),
                      static_cast<int32_t>(B), -1, 0, 0});
  F->Insts.push_back({JitOp::LoopExit, -1, -1, -1, -1, 0, 0});
  std::shared_ptr<const CompiledUnit> U = lowerToClosures(std::move(F));

  core::SpecSpace Direct;
  std::vector<int64_t> ByZero = {5, 0};
  ExecCtx C1{ByZero.data(), nullptr, 0, &Direct, 100};
  EXPECT_EQ(execute(*U, C1), kRetDeopt);

  std::vector<int64_t> Overflow = {INT64_MIN, -1};
  ExecCtx C2{Overflow.data(), nullptr, 0, &Direct, 100};
  EXPECT_EQ(execute(*U, C2), kRetDeopt);

  std::vector<int64_t> Fine = {INT64_MIN, 2};
  ExecCtx C3{Fine.data(), nullptr, 0, &Direct, 100};
  EXPECT_EQ(execute(*U, C3), kRetExit);
}

//===----------------------------------------------------------------------===//
// Code cache
//===----------------------------------------------------------------------===//

/// One IR loop, built and matched, for the cache tests. Distinct
/// workloads give distinct (function, loop header) keys.
struct CachedLoop {
  ir::Module M;
  std::unique_ptr<workloads::IRWorkload> W;
  ir::Function *F;
  std::unique_ptr<transform::CanonicalLoop> CL;

  explicit CachedLoop(std::unique_ptr<workloads::IRWorkload> WL)
      : W(std::move(WL)) {
    F = W->build(M);
    std::string Why;
    CL = transform::matchCanonicalLoop(*F, &Why);
    EXPECT_NE(CL, nullptr) << Why;
  }
};

CachedLoop cachedOtter() {
  return CachedLoop(std::make_unique<workloads::OtterIR>(64, 3));
}
CachedLoop cachedKs() {
  return CachedLoop(std::make_unique<workloads::KsIR>(72, 5, 7));
}
CachedLoop cachedMcf() {
  return CachedLoop(std::make_unique<workloads::McfIR>(80, 9));
}

TEST(JitCodeCache, HitsOnReinvocation) {
  CachedLoop O = cachedOtter();
  CodeCache Cache;
  auto U1 = Cache.getOrCompile(*O.CL);
  auto U2 = Cache.getOrCompile(*O.CL);
  ASSERT_NE(U1, nullptr);
  EXPECT_EQ(U1.get(), U2.get()) << "second compile must be a cache hit";
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(JitCodeCache, RunnersWithDifferentLoopOptionsShareOneUnit) {
  // Compilation reads the IR alone, so the key is (function, loop
  // header): a second runner of the function under another loop policy
  // reuses the first runner's unit, and both match the interpreter.
  Side Oracle(makeOtter());
  Side Jit(makeOtter());
  core::SpiceRuntime RT(/*NumThreads=*/4);
  CodeCache Cache;
  JitTierOptions Tier;
  Tier.ForceJit = true;
  core::LoopOptions Other;
  Other.ChunksPerThread = 2;
  Other.EnableConflictDetection = true;
  JitLoopRunner First(RT, *Jit.F, Jit.Mem, Cache, core::LoopOptions{}, Tier);
  JitLoopRunner Second(RT, *Jit.F, Jit.Mem, Cache, Other, Tier);

  const int64_t Want = vm::runFunction(*Oracle.F, Oracle.Mem,
                                       Oracle.W->invocationArgs(Oracle.Mem))
                           .ReturnValue;
  const std::vector<int64_t> Args = Jit.W->invocationArgs(Jit.Mem);
  EXPECT_EQ(First.invoke(Args), Want);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Second.invoke(Args), Want);
  ASSERT_TRUE(First.jitted() && Second.jitted());
  EXPECT_EQ(First.unit(), Second.unit()) << "one compiled unit, two runners";
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(JitCodeCache, EvictsLeastRecentlyUsedAtCapacity) {
  CachedLoop A = cachedOtter(), B = cachedKs(), C = cachedMcf();
  CodeCache Cache(/*Capacity=*/2);
  auto UA = Cache.getOrCompile(*A.CL);
  auto UB = Cache.getOrCompile(*B.CL);
  // Touch A so B becomes the LRU entry.
  EXPECT_NE(Cache.lookup(A.F, A.CL->Header), nullptr);
  auto UC = Cache.getOrCompile(*C.CL);
  ASSERT_NE(UC, nullptr);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.lookup(B.F, B.CL->Header), nullptr)
      << "B was least recently used and must be gone";
  EXPECT_NE(Cache.lookup(A.F, A.CL->Header), nullptr);
  EXPECT_NE(UB, nullptr) << "evicted units stay alive for their holders";
}

TEST(JitCodeCache, InvalidateDropsAllUnitsOfAFunction) {
  CachedLoop A = cachedOtter(), B = cachedKs();
  CodeCache Cache;
  auto UA = Cache.getOrCompile(*A.CL);
  ASSERT_NE(UA, nullptr);
  (void)Cache.getOrCompile(*B.CL);
  // A second unit of A's function, as a second loop of it would key
  // one: invalidation drops by function, whatever the header.
  Cache.insert(A.F, A.F->getEntryBlock(), UA);
  ASSERT_EQ(Cache.size(), 3u);
  Cache.invalidate(A.F);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.stats().Invalidations, 2u);
  EXPECT_NE(Cache.lookup(B.F, B.CL->Header), nullptr)
      << "units of other functions survive";
}

//===----------------------------------------------------------------------===//
// Tiering
//===----------------------------------------------------------------------===//

TEST(JitTiering, PromotesHotLoopAfterWarmup) {
  Side S(makeOtter());
  core::SpiceRuntime RT(/*NumThreads=*/4);
  CodeCache Cache;
  JitTierOptions Tier; // Default: 1 warmup invocation, 0.5% hotness.
  JitLoopRunner Runner(RT, *S.F, S.Mem, Cache, core::LoopOptions{}, Tier);
  ASSERT_TRUE(Runner.supported()) << Runner.whyNot();

  (void)Runner.invoke(S.W->invocationArgs(S.Mem));
  EXPECT_FALSE(Runner.jitted()) << "first invocation interprets and profiles";
  (void)Runner.invoke(S.W->invocationArgs(S.Mem));
  EXPECT_TRUE(Runner.jitted()) << "hot loop promotes after warmup";
  JitTierStats TS = Runner.tierStats();
  EXPECT_EQ(TS.InterpretedInvocations, 1u);
  EXPECT_EQ(TS.JitInvocations, 1u);
  EXPECT_GT(Runner.profile().TotalDynamic, 0u);
}

TEST(JitTiering, ColdLoopStaysInterpreted) {
  Side Jit(makeOtter());
  Side Oracle(makeOtter());
  core::SpiceRuntime RT(/*NumThreads=*/4);
  CodeCache Cache;
  JitTierOptions Tier;
  Tier.HotnessThreshold = 2.0; // Unreachable: fractions are <= 1.
  JitLoopRunner Runner(RT, *Jit.F, Jit.Mem, Cache, core::LoopOptions{}, Tier);

  for (int I = 0; I != 3; ++I) {
    int64_t Want = vm::runFunction(*Oracle.F, Oracle.Mem,
                                   Oracle.W->invocationArgs(Oracle.Mem))
                       .ReturnValue;
    EXPECT_EQ(Runner.invoke(Jit.W->invocationArgs(Jit.Mem)), Want);
    Oracle.W->mutate(Oracle.Mem);
    Jit.W->mutate(Jit.Mem);
  }
  EXPECT_FALSE(Runner.jitted());
  EXPECT_EQ(Runner.tierStats().InterpretedInvocations, 3u);
  EXPECT_EQ(Cache.stats().Misses, 0u) << "never even reached the cache";
}

TEST(JitTiering, HotnessProfileAccessorMatchesLoopWeight) {
  Side S(makeOtter());
  vm::ExecutionResult R =
      vm::runFunction(*S.F, S.Mem, S.W->invocationArgs(S.Mem));
  vm::HotnessProfile P = R.profile();
  EXPECT_EQ(P.TotalDynamic, R.DynamicInstructions);
  std::string Why;
  auto CL = transform::matchCanonicalLoop(*S.F, &Why);
  ASSERT_NE(CL, nullptr) << Why;
  double Frac = P.fractionIn(CL->L->blocks());
  EXPECT_GT(Frac, 0.5) << "the walk loop dominates execution";
  EXPECT_LE(Frac, 1.0);
}

//===----------------------------------------------------------------------===//
// Equivalence: JIT vs interpreter oracle
//===----------------------------------------------------------------------===//

TEST(JitEquivalence, OtterSequential) {
  expectTwinEquivalence([] { return makeOtter(); }, core::LoopOptions{},
                        Mode::Sequential, 10);
}

TEST(JitEquivalence, KsSequential) {
  expectTwinEquivalence(
      [] { return std::make_unique<workloads::KsIR>(72, 5, 7); },
      core::LoopOptions{}, Mode::Sequential, 10);
}

TEST(JitEquivalence, McfSequential) {
  core::LoopOptions Opts;
  Opts.EnableConflictDetection = true;
  expectTwinEquivalence(
      [] { return std::make_unique<workloads::McfIR>(80, 9); }, Opts,
      Mode::Sequential, 10);
}

TEST(JitEquivalence, SjengSequential) {
  expectTwinEquivalence(
      [] { return std::make_unique<workloads::SjengIR>(64, 13); },
      core::LoopOptions{}, Mode::Sequential, 10);
}

TEST(JitEquivalence, OtterParallelForcedMispredictions) {
  // Random removals invalidate predicted cursors, forcing misprediction,
  // squash and recovery inside the JIT-compiled loop.
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    core::LoopOptions Opts;
    Opts.ChunksPerThread = K;
    expectTwinEquivalence([] { return makeOtter(/*Removals=*/2); }, Opts,
                          Mode::Parallel, 12);
  }
}

TEST(JitEquivalence, KsParallel) {
  for (unsigned K : {1u, 4u}) {
    core::LoopOptions Opts;
    Opts.ChunksPerThread = K;
    expectTwinEquivalence(
        [] { return std::make_unique<workloads::KsIR>(72, 5, 7); }, Opts,
        Mode::Parallel, 8);
  }
}

TEST(JitEquivalence, McfParallelWithStores) {
  // Stores from speculative chunks: EnableConflictDetection is required
  // and commit-time read validation must cover JIT deopt poisoning.
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    core::LoopOptions Opts;
    Opts.ChunksPerThread = K;
    Opts.EnableConflictDetection = true;
    expectTwinEquivalence(
        [] { return std::make_unique<workloads::McfIR>(80, 9); }, Opts,
        Mode::Parallel, 8);
  }
}

TEST(JitEquivalence, SjengParallel) {
  core::LoopOptions Opts;
  Opts.ChunksPerThread = 4;
  expectTwinEquivalence(
      [] { return std::make_unique<workloads::SjengIR>(64, 13); }, Opts,
      Mode::Parallel, 8);
}

TEST(JitEquivalence, SubmitPathMatchesOracle) {
  core::LoopOptions Opts;
  Opts.ChunksPerThread = 4;
  expectTwinEquivalence([] { return makeOtter(/*Removals=*/1); }, Opts,
                        Mode::Submit, 10);
}
