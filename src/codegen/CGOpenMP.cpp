//===--- CGOpenMP.cpp - OpenMP directive code generation --------------------===//
//
// Implements both lowering pipelines of the paper:
//
//  * Legacy shadow-AST (Section 2): "early outlining" — parallel regions
//    are outlined here in the front-end; worksharing loops are emitted from
//    the pre-computed OMPLoopDirective shadow helpers; standalone tile
//    emits its transformed statement; standalone unroll defers to the
//    mid-end LoopUnroll pass via llvm.loop.unroll.* metadata.
//
//  * IRBuilder mode (Section 3): OMPCanonicalLoop nodes lower through
//    OpenMPIRBuilder::createCanonicalLoop; stacked directives apply
//    tileLoops / unrollLoopPartial / collapseLoops / applyWorkshareLoop on
//    CanonicalLoopInfo handles.
//
//===----------------------------------------------------------------------===//
#include "codegen/CodeGenFunction.h"

#include "ast/ExprConstant.h"

namespace mcc {

using namespace ir;

ir::Value *CodeGenFunction::emitGtid() {
  return B.createCall(
      OMPB.getOrCreateRuntimeFunction("__kmpc_global_thread_num"), {},
      "gtid");
}

void CodeGenFunction::emitOMPBarrier() {
  B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_barrier"),
               {emitGtid()});
}

void CodeGenFunction::emitCapturedFunctionInline(
    const CapturedStmt *CS, std::span<ir::Value *const> ParamValues) {
  const CapturedDecl *CD = CS->getCapturedDecl();
  assert(ParamValues.size() == CD->getNumParams());
  // Bind each implicit parameter to a temporary slot holding the supplied
  // value, then emit the body inline.
  std::vector<std::pair<const ValueDecl *, ir::Value *>> Saved;
  for (unsigned I = 0; I < CD->getNumParams(); ++I) {
    const ImplicitParamDecl *P = CD->getParam(I);
    Instruction *Tmp = B.createAllocaInEntry(
        CGM.convertType(P->getType()), 1, std::string(P->getName()) + ".val");
    B.createStore(ParamValues[I], Tmp);
    auto It = LocalAddrs.find(P);
    Saved.emplace_back(P, It == LocalAddrs.end() ? nullptr : It->second);
    LocalAddrs[P] = Tmp;
  }
  emitStmt(CS->getCapturedStmt());
  for (auto &[D, Old] : Saved) {
    if (Old)
      LocalAddrs[D] = Old;
    else
      LocalAddrs.erase(D);
  }
}

// ===---------------------- Privatization clauses ---------------------=== //

std::vector<CodeGenFunction::ReductionInfo>
CodeGenFunction::emitPrivatizationClauses(
    std::span<OMPClause *const> Clauses) {
  std::vector<ReductionInfo> Reductions;
  for (const OMPClause *C : Clauses) {
    if (const auto *PC = clause_dyn_cast<OMPPrivateClause>(C)) {
      for (const DeclRefExpr *Ref : PC->getVarRefs()) {
        const auto *VD = decl_cast<VarDecl>(Ref->getDecl());
        auto [ElemTy, Count] = CGM.convertTypeForMem(VD->getType());
        Instruction *Priv = B.createAllocaInEntry(
            ElemTy, Count, std::string(VD->getName()) + ".private");
        LocalAddrs[VD] = Priv;
      }
    } else if (const auto *FC = clause_dyn_cast<OMPFirstPrivateClause>(C)) {
      for (const DeclRefExpr *Ref : FC->getVarRefs()) {
        const auto *VD = decl_cast<VarDecl>(Ref->getDecl());
        ir::Value *SharedAddr = addressOfDecl(VD);
        auto [ElemTy, Count] = CGM.convertTypeForMem(VD->getType());
        Instruction *Priv = B.createAllocaInEntry(
            ElemTy, Count, std::string(VD->getName()) + ".firstprivate");
        // Copy-initialize from the shared original (scalars).
        B.createStore(B.createLoad(ElemTy, SharedAddr), Priv);
        LocalAddrs[VD] = Priv;
      }
    } else if (const auto *RC = clause_dyn_cast<OMPReductionClause>(C)) {
      for (const DeclRefExpr *Ref : RC->getVarRefs()) {
        const auto *VD = decl_cast<VarDecl>(Ref->getDecl());
        ir::Value *SharedAddr = addressOfDecl(VD);
        const IRType *Ty = CGM.convertType(VD->getType());
        Instruction *Priv = B.createAllocaInEntry(
            Ty, 1, std::string(VD->getName()) + ".red");
        // Initialize to the operator's identity element.
        ir::Value *Identity;
        if (Ty->isDouble()) {
          double Id = 0;
          switch (RC->getOperator()) {
          case OpenMPReductionOp::Mul:
            Id = 1;
            break;
          case OpenMPReductionOp::Min:
            Id = 1e300;
            break;
          case OpenMPReductionOp::Max:
            Id = -1e300;
            break;
          default:
            Id = 0;
            break;
          }
          Identity = B.getDouble(Id);
        } else {
          std::int64_t Id = 0;
          bool Signed = VD->getType()->isSignedIntegerType();
          unsigned Bits = Ty->getBitWidth();
          // Through std::uint64_t: 1LL << 63 overflows.
          const std::uint64_t Top = std::uint64_t{1} << (Bits - 1);
          std::int64_t MaxV = Signed ? static_cast<std::int64_t>(Top - 1) : -1;
          std::int64_t MinV = Signed ? static_cast<std::int64_t>(-Top) : 0;
          switch (RC->getOperator()) {
          case OpenMPReductionOp::Mul:
          case OpenMPReductionOp::LogAnd:
            Id = 1;
            break;
          case OpenMPReductionOp::Min:
            Id = MaxV;
            break;
          case OpenMPReductionOp::Max:
            Id = MinV;
            break;
          case OpenMPReductionOp::BitAnd:
            Id = -1;
            break;
          default:
            Id = 0;
            break;
          }
          Identity = B.getInt(Ty, Id);
        }
        B.createStore(Identity, Priv);
        LocalAddrs[VD] = Priv;
        Reductions.push_back({VD, RC->getOperator(), Priv, SharedAddr});
      }
    }
  }
  return Reductions;
}

void CodeGenFunction::emitReductionFinalization(
    const std::vector<ReductionInfo> &Rs) {
  if (Rs.empty())
    return;
  // Combine under the critical lock (the __kmpc_reduce shortcut of real
  // libomp is approximated by a critical section).
  B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_critical"),
               {emitGtid()});
  for (const ReductionInfo &R : Rs) {
    const IRType *Ty = CGM.convertType(R.Var->getType());
    ir::Value *Mine = B.createLoad(Ty, R.PrivateAddr, "red.mine");
    ir::Value *Shared = B.createLoad(Ty, R.SharedAddr, "red.shared");
    ir::Value *Combined = Shared;
    bool Signed = R.Var->getType()->isSignedIntegerType();
    if (Ty->isDouble()) {
      switch (R.Op) {
      case OpenMPReductionOp::Add:
        Combined = B.createBinOp(Opcode::FAdd, Shared, Mine, "red");
        break;
      case OpenMPReductionOp::Mul:
        Combined = B.createBinOp(Opcode::FMul, Shared, Mine, "red");
        break;
      case OpenMPReductionOp::Min:
        Combined = B.createSelect(
            B.createFCmp(CmpPred::OLT, Mine, Shared, "c"), Mine, Shared,
            "red");
        break;
      case OpenMPReductionOp::Max:
        Combined = B.createSelect(
            B.createFCmp(CmpPred::OGT, Mine, Shared, "c"), Mine, Shared,
            "red");
        break;
      default:
        Combined = Shared;
        break;
      }
    } else {
      switch (R.Op) {
      case OpenMPReductionOp::Add:
        Combined = B.createAdd(Shared, Mine, "red");
        break;
      case OpenMPReductionOp::Mul:
        Combined = B.createMul(Shared, Mine, "red");
        break;
      case OpenMPReductionOp::Min:
        Combined = B.createSelect(
            B.createICmp(Signed ? CmpPred::SLT : CmpPred::ULT, Mine, Shared,
                         "c"),
            Mine, Shared, "red");
        break;
      case OpenMPReductionOp::Max:
        Combined = B.createSelect(
            B.createICmp(Signed ? CmpPred::SGT : CmpPred::UGT, Mine, Shared,
                         "c"),
            Mine, Shared, "red");
        break;
      case OpenMPReductionOp::BitAnd:
        Combined = B.createBinOp(Opcode::And, Shared, Mine, "red");
        break;
      case OpenMPReductionOp::BitOr:
        Combined = B.createBinOp(Opcode::Or, Shared, Mine, "red");
        break;
      case OpenMPReductionOp::BitXor:
        Combined = B.createBinOp(Opcode::Xor, Shared, Mine, "red");
        break;
      case OpenMPReductionOp::LogAnd: {
        ir::Value *Both = B.createBinOp(
            Opcode::And,
            B.createCast(Opcode::ZExt,
                         B.createICmp(CmpPred::NE, Shared,
                                      B.getInt(Ty, 0), "s"),
                         Ty, "sz"),
            B.createCast(Opcode::ZExt,
                         B.createICmp(CmpPred::NE, Mine, B.getInt(Ty, 0),
                                      "m"),
                         Ty, "mz"),
            "red");
        Combined = Both;
        break;
      }
      case OpenMPReductionOp::LogOr: {
        ir::Value *Either = B.createBinOp(Opcode::Or, Shared, Mine, "or");
        Combined = B.createCast(
            Opcode::ZExt,
            B.createICmp(CmpPred::NE, Either, B.getInt(Ty, 0), "nz"), Ty,
            "red");
        break;
      }
      }
    }
    B.createStore(Combined, R.SharedAddr);
  }
  B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_end_critical"),
               {emitGtid()});
}

// ===--------------------------- Outlining ----------------------------=== //

ir::Function *CodeGenFunction::emitOutlinedFunction(
    const CapturedStmt *CS, const std::string &Name,
    std::vector<const VarDecl *> &Captures,
    std::span<OMPClause *const> Clauses) {
  for (const CapturedStmt::Capture &Cap : CS->captures())
    Captures.push_back(Cap.Var);

  ir::Function *F = CGM.getModule().createFunction(
      Name, IRType::getVoid(),
      {IRType::getPtr(), IRType::getPtr(), IRType::getPtr()},
      {".global_tid.", ".bound_tid.", "__context"});

  CodeGenFunction CGF(CGM);
  CGF.CurFn = F;
  CGF.CurFnDecl = CurFnDecl;
  CGF.B.setInsertPoint(F->createBlock("entry"));

  // Unpack the context array: slot i holds the address of capture i.
  Argument *Ctx = F->getArg(2);
  for (std::size_t I = 0; I < Captures.size(); ++I) {
    ir::Value *SlotPtr = CGF.B.createGEP(
        IRType::getPtr(), Ctx, CGF.B.getI64(static_cast<std::int64_t>(I)),
        std::string(Captures[I]->getName()) + ".slot");
    ir::Value *Addr =
        CGF.B.createLoad(IRType::getPtr(), SlotPtr,
                         std::string(Captures[I]->getName()) + ".addr");
    CGF.LocalAddrs[Captures[I]] = Addr;
  }

  std::vector<ReductionInfo> Reductions =
      CGF.emitPrivatizationClauses(Clauses);

  // The captured statement may be a loop for a combined directive; the
  // caller is responsible for having arranged the right statement (the
  // directive dispatcher calls this with the directive's body logic via
  // the directive node, so here we emit the statement directly for plain
  // "#pragma omp parallel").
  CGF.emitStmt(CS->getCapturedStmt());

  CGF.emitReductionFinalization(Reductions);
  if (!CGF.B.isBlockTerminated())
    CGF.B.createRetVoid();
  for (const auto &BB : F->blocks())
    if (!BB->getTerminator()) {
      CGF.B.setInsertPoint(BB.get());
      CGF.B.createUnreachable();
    }
  return F;
}

namespace {
/// Emits the fork-call site: builds the context array of capture
/// addresses and calls __kmpc_fork_call.
void emitForkCall(CodeGenFunction &CGF, ir::IRBuilder &B,
                  ir::OpenMPIRBuilder &OMPB, ir::Function *Outlined,
                  const std::vector<ir::Value *> &CaptureAddrs,
                  ir::Value *NumThreads) {
  (void)CGF;
  Instruction *Ctx = B.createAlloca(
      IRType::getPtr(),
      B.getI64(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(CaptureAddrs.size()))),
      "omp.context");
  for (std::size_t I = 0; I < CaptureAddrs.size(); ++I) {
    ir::Value *Slot = B.createGEP(IRType::getPtr(), Ctx,
                                  B.getI64(static_cast<std::int64_t>(I)));
    B.createStore(CaptureAddrs[I], Slot);
  }
  B.createCall(
      OMPB.getOrCreateRuntimeFunction("__kmpc_fork_call"),
      {Outlined, B.getI32(static_cast<std::int32_t>(CaptureAddrs.size())),
       Ctx, NumThreads ? NumThreads : B.getI32(0)});
}
} // namespace

// ===--------------------------- Dispatcher ---------------------------=== //

void CodeGenFunction::emitOMPDirective(const OMPExecutableDirective *D) {
  switch (D->getDirectiveKind()) {
  case OpenMPDirectiveKind::Parallel:
    return emitOMPParallel(stmt_cast<OMPParallelDirective>(D));
  case OpenMPDirectiveKind::Barrier:
    return emitOMPBarrier();
  case OpenMPDirectiveKind::Critical: {
    B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_critical"),
                 {emitGtid()});
    emitStmt(D->getAssociatedStmt());
    B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_end_critical"),
                 {emitGtid()});
    return;
  }
  case OpenMPDirectiveKind::Master:
  case OpenMPDirectiveKind::Single: {
    // single is approximated by master + barrier (documented deviation).
    ir::Value *Tid = B.createCall(
        OMPB.getOrCreateRuntimeFunction("omp_get_thread_num"), {}, "tid");
    ir::Value *IsMaster =
        B.createICmp(CmpPred::EQ, Tid, B.getI32(0), "is.master");
    BasicBlock *ThenBB = CurFn->createBlock("omp.master.then");
    BasicBlock *EndBB = CurFn->createBlock("omp.master.end");
    B.createCondBr(IsMaster, ThenBB, EndBB);
    B.setInsertPoint(ThenBB);
    emitStmt(D->getAssociatedStmt());
    if (!B.isBlockTerminated())
      B.createBr(EndBB);
    B.setInsertPoint(EndBB);
    if (D->getDirectiveKind() == OpenMPDirectiveKind::Single &&
        !D->getSingleClause<OMPNoWaitClause>())
      emitOMPBarrier();
    return;
  }
  case OpenMPDirectiveKind::For:
  case OpenMPDirectiveKind::ParallelFor:
  case OpenMPDirectiveKind::Simd:
  case OpenMPDirectiveKind::ForSimd:
  case OpenMPDirectiveKind::Tile:
  case OpenMPDirectiveKind::Unroll:
  case OpenMPDirectiveKind::Reverse:
  case OpenMPDirectiveKind::Interchange:
  case OpenMPDirectiveKind::Fuse:
  case OpenMPDirectiveKind::DistributeLoop: {
    if (CGM.getLangOpts().OpenMPEnableIRBuilder)
      return emitOMPLoopBasedDirectiveIRBuilder(
          stmt_cast<OMPLoopBasedDirective>(D));
    // Legacy pipeline.
    switch (D->getDirectiveKind()) {
    case OpenMPDirectiveKind::Tile:
      return emitOMPTileLegacy(stmt_cast<OMPTileDirective>(D));
    case OpenMPDirectiveKind::Unroll:
      return emitOMPUnrollLegacy(stmt_cast<OMPUnrollDirective>(D));
    case OpenMPDirectiveKind::Reverse:
    case OpenMPDirectiveKind::Interchange:
    case OpenMPDirectiveKind::Fuse:
    case OpenMPDirectiveKind::DistributeLoop:
      return emitOMPTransformLegacy(
          stmt_cast<OMPLoopTransformationDirective>(D));
    default:
      return emitOMPLoopDirectiveLegacy(stmt_cast<OMPLoopDirective>(D));
    }
  }
  default:
    assert(false && "unhandled OpenMP directive in CodeGen");
  }
}

// ===---------------------- Legacy: parallel --------------------------=== //

void CodeGenFunction::emitOMPParallel(const OMPParallelDirective *D) {
  const auto *CS = stmt_cast<CapturedStmt>(D->getAssociatedStmt());
  std::vector<const VarDecl *> Captures;
  ir::Function *Outlined = emitOutlinedFunction(
      CS, CGM.makeOutlinedName(std::string(CurFnDecl->getName())), Captures,
      D->clauses());

  std::vector<ir::Value *> CaptureAddrs;
  for (const VarDecl *V : Captures)
    CaptureAddrs.push_back(addressOfDecl(V));

  ir::Value *NumThreads = nullptr;
  if (const auto *NT = D->getSingleClause<OMPNumThreadsClause>())
    NumThreads = B.createIntCast(emitExpr(NT->getNumThreads()),
                                 IRType::getI32(), true, "numthreads");
  emitForkCall(*this, B, OMPB, Outlined, CaptureAddrs, NumThreads);
}

// ===------------------ Legacy: worksharing loops ---------------------=== //

void CodeGenFunction::emitWorkshareFromHelpers(const OMPLoopDirective *D) {
  const OMPLoopHelperExprs &H = D->getLoopHelpers();
  bool IsSimdOnly =
      D->getDirectiveKind() == OpenMPDirectiveKind::Simd;

  std::vector<ReductionInfo> Reductions;
  if (!isOpenMPParallelDirective(D->getDirectiveKind()))
    Reductions = emitPrivatizationClauses(D->clauses());
  // (for combined parallel-for, privatization already ran in the outlined
  // function prologue; reductions were registered there.)

  // PreInits: '.capture_expr.' trip counts etc.
  if (H.PreInits)
    emitStmt(H.PreInits);

  // Control variables.
  emitVarDecl(H.IterationVar); // no init
  emitVarDecl(H.LowerBoundVar);
  emitVarDecl(H.UpperBoundVar);
  emitVarDecl(H.StrideVar);
  emitVarDecl(H.IsLastIterVar);

  // Privatized loop counters (the user-visible i, j, ...).
  for (const OMPLoopHelperExprs::LoopData &L : H.Loops) {
    if (LocalAddrs.count(L.CounterVar))
      continue; // already privatized via a clause
    auto [ElemTy, Count] = CGM.convertTypeForMem(L.CounterVar->getType());
    Instruction *Slot = B.createAllocaInEntry(
        ElemTy, Count, std::string(L.CounterVar->getName()));
    LocalAddrs[L.CounterVar] = Slot;
  }

  const auto *Sched = D->getSingleClause<OMPScheduleClause>();
  OpenMPScheduleKind SchedKind =
      Sched ? Sched->getScheduleKind() : OpenMPScheduleKind::Static;
  const Expr *ChunkExpr = Sched ? Sched->getChunkSize() : nullptr;
  bool UseStaticInit = !IsSimdOnly &&
                       SchedKind == OpenMPScheduleKind::Static && !ChunkExpr;
  bool NoWait = D->getSingleClause<OMPNoWaitClause>() != nullptr;

  auto EmitInnerLoop = [&](ir::LoopMetadata MD) {
    // iv = lb; while (iv <= ub) { counters; body; ++iv }
    emitExpr(H.Init);
    BasicBlock *CondBB = CurFn->createBlock("omp.inner.for.cond");
    BasicBlock *BodyBB = CurFn->createBlock("omp.inner.for.body");
    BasicBlock *IncBB = CurFn->createBlock("omp.inner.for.inc");
    BasicBlock *EndBB = CurFn->createBlock("omp.inner.for.end");
    B.createBr(CondBB);
    B.setInsertPoint(CondBB);
    B.createCondBr(emitCondition(H.Cond), BodyBB, EndBB);
    B.setInsertPoint(BodyBB);
    for (const OMPLoopHelperExprs::LoopData &L : H.Loops)
      emitExpr(L.CounterUpdate);
    emitStmt(H.Body);
    if (!B.isBlockTerminated())
      B.createBr(IncBB);
    B.setInsertPoint(IncBB);
    emitExpr(H.Inc);
    Instruction *Latch = B.createBr(CondBB);
    Latch->LoopMD = MD;
    B.setInsertPoint(EndBB);
  };

  ir::LoopMetadata SimdMD;
  if (IsSimdOnly || D->getDirectiveKind() == OpenMPDirectiveKind::ForSimd)
    SimdMD.Vectorize = true;

  if (IsSimdOnly) {
    // No worksharing: iterate the whole logical space with simd metadata.
    EmitInnerLoop(SimdMD);
    emitReductionFinalization(Reductions);
    return;
  }

  if (UseStaticInit) {
    ir::Value *Gtid = emitGtid();
    B.createCall(
        OMPB.getOrCreateRuntimeFunction("__kmpc_for_static_init"),
        {Gtid, B.getI32(static_cast<std::int32_t>(OMPScheduleType::Static)),
         addressOfDecl(H.IsLastIterVar), addressOfDecl(H.LowerBoundVar),
         addressOfDecl(H.UpperBoundVar), addressOfDecl(H.StrideVar),
         B.getI64(1), B.getI64(0)});
    emitExpr(H.EnsureUpperBound);
    EmitInnerLoop(SimdMD);
    B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_for_static_fini"),
                 {emitGtid()});
  } else {
    // Chunked static / dynamic / guided: dispatch loop.
    std::int32_t SchedVal;
    switch (SchedKind) {
    case OpenMPScheduleKind::Static:
      SchedVal = static_cast<std::int32_t>(OMPScheduleType::StaticChunked);
      break;
    case OpenMPScheduleKind::Guided:
      SchedVal = static_cast<std::int32_t>(OMPScheduleType::GuidedChunked);
      break;
    default:
      SchedVal = static_cast<std::int32_t>(OMPScheduleType::DynamicChunked);
      break;
    }
    ir::Value *Chunk =
        ChunkExpr ? B.createIntCast(emitExpr(ChunkExpr), IRType::getI64(),
                                    true, "chunk")
                  : B.getI64(1);
    ir::Value *NumIter = emitExpr(H.NumIterations);
    NumIter = B.createIntCast(NumIter, IRType::getI64(), false, "trip64");
    B.createCall(OMPB.getOrCreateRuntimeFunction("__kmpc_dispatch_init"),
                 {emitGtid(), B.getI32(SchedVal), B.getI64(0),
                  B.createSub(NumIter, B.getI64(1), "lastiter"), Chunk});

    BasicBlock *DispCondBB = CurFn->createBlock("omp.dispatch.cond");
    BasicBlock *DispBodyBB = CurFn->createBlock("omp.dispatch.body");
    BasicBlock *DispEndBB = CurFn->createBlock("omp.dispatch.end");
    B.createBr(DispCondBB);
    B.setInsertPoint(DispCondBB);
    ir::Value *More = B.createCall(
        OMPB.getOrCreateRuntimeFunction("__kmpc_dispatch_next"),
        {emitGtid(), addressOfDecl(H.IsLastIterVar),
         addressOfDecl(H.LowerBoundVar), addressOfDecl(H.UpperBoundVar)},
        "more");
    B.createCondBr(B.createICmp(CmpPred::NE, More, B.getI32(0), "haschunk"),
                   DispBodyBB, DispEndBB);
    B.setInsertPoint(DispBodyBB);
    EmitInnerLoop(SimdMD);
    B.createBr(DispCondBB);
    B.setInsertPoint(DispEndBB);
  }

  emitReductionFinalization(Reductions);
  if (!NoWait)
    emitOMPBarrier();
}

void CodeGenFunction::emitOMPLoopDirectiveLegacy(const OMPLoopDirective *D) {
  if (isOpenMPParallelDirective(D->getDirectiveKind())) {
    // Combined parallel-for: outline, then emit the worksharing loop
    // inside the outlined function.
    const auto *CS = stmt_cast<CapturedStmt>(D->getAssociatedStmt());
    std::vector<const VarDecl *> Captures;
    for (const CapturedStmt::Capture &Cap : CS->captures())
      Captures.push_back(Cap.Var);

    ir::Function *Outlined = CGM.getModule().createFunction(
        CGM.makeOutlinedName(std::string(CurFnDecl->getName())),
        IRType::getVoid(),
        {IRType::getPtr(), IRType::getPtr(), IRType::getPtr()},
        {".global_tid.", ".bound_tid.", "__context"});

    CodeGenFunction CGF(CGM);
    CGF.CurFn = Outlined;
    CGF.CurFnDecl = CurFnDecl;
    CGF.B.setInsertPoint(Outlined->createBlock("entry"));
    Argument *Ctx = Outlined->getArg(2);
    for (std::size_t I = 0; I < Captures.size(); ++I) {
      ir::Value *SlotPtr = CGF.B.createGEP(
          IRType::getPtr(), Ctx, CGF.B.getI64(static_cast<std::int64_t>(I)));
      CGF.LocalAddrs[Captures[I]] =
          CGF.B.createLoad(IRType::getPtr(), SlotPtr,
                           std::string(Captures[I]->getName()) + ".addr");
    }
    std::vector<ReductionInfo> Reductions =
        CGF.emitPrivatizationClauses(D->clauses());
    CGF.emitWorkshareFromHelpers(D);
    CGF.emitReductionFinalization(Reductions);
    if (!CGF.B.isBlockTerminated())
      CGF.B.createRetVoid();

    std::vector<ir::Value *> CaptureAddrs;
    for (const VarDecl *V : Captures)
      CaptureAddrs.push_back(addressOfDecl(V));
    ir::Value *NumThreads = nullptr;
    if (const auto *NT = D->getSingleClause<OMPNumThreadsClause>())
      NumThreads = B.createIntCast(emitExpr(NT->getNumThreads()),
                                   IRType::getI32(), true, "numthreads");
    emitForkCall(*this, B, OMPB, Outlined, CaptureAddrs, NumThreads);
    return;
  }
  // Inline worksharing (within the current team) / simd.
  emitWorkshareFromHelpers(D);
}

// ===------------------ Legacy: loop transformations ------------------=== //

void CodeGenFunction::emitOMPTileLegacy(const OMPTileDirective *D) {
  // "If encountering a non-associated tile construct, CodeGen will simply
  // emit the transformed AST in its place." (Section 2.2)
  if (D->getPreInits())
    emitStmt(D->getPreInits());
  emitStmt(D->getTransformedStmt());
}

void CodeGenFunction::emitOMPTransformLegacy(
    const OMPLoopTransformationDirective *D) {
  // reverse / interchange: Sema already built the de-sugared shadow loop
  // nest over the permuted/mirrored logical spaces; emit it in place.
  if (D->getPreInits())
    emitStmt(D->getPreInits());
  emitStmt(D->getTransformedStmt());
}

void CodeGenFunction::emitOMPUnrollLegacy(const OMPUnrollDirective *D) {
  if (D->getPreInits())
    emitStmt(D->getPreInits());
  if (D->hasPartialClause()) {
    // The transformed AST's inner loop carries the LoopHintAttr that
    // becomes llvm.loop.unroll.count metadata.
    emitStmt(D->getTransformedStmt());
    return;
  }
  // Full/heuristic: "it is more efficient to defer unrolling to the
  // LoopUnroll pass by attaching llvm.loop.unroll.* metadata to the loop
  // without even tiling the loop beforehand." (Section 2.2)
  ir::LoopMetadata MD;
  if (D->hasFullClause())
    MD.UnrollFull = true;
  else
    MD.UnrollEnable = true;
  // The associated statement may itself be a loop transformation whose
  // generated loop this unroll applies to: descend through transformed
  // statements (the consumption mechanism of Section 2).
  Stmt *S = D->getAssociatedStmt();
  while (true) {
    if (auto *CL = stmt_dyn_cast<OMPCanonicalLoop>(S)) {
      S = CL->getLoopStmt();
      continue;
    }
    if (auto *CS = stmt_dyn_cast<CompoundStmt>(S); CS && CS->size() == 1) {
      S = CS->body()[0];
      continue;
    }
    if (auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(S)) {
      if (TD->getPreInits())
        emitStmt(TD->getPreInits());
      S = TD->getTransformedStmt();
      continue;
    }
    break;
  }
  emitForStmt(stmt_cast<ForStmt>(S), MD);
}

// ===----------------- IRBuilder pipeline (Section 3) -----------------=== //

ir::Value *
CodeGenFunction::emitCanonicalDistance(const OMPCanonicalLoop *CL) {
  const CapturedStmt *Dist = CL->getDistanceFunc();
  const ImplicitParamDecl *ResultParam = Dist->getCapturedDecl()->getParam(0);
  const auto *PT =
      type_cast<PointerType>(ResultParam->getType().getTypePtr());
  const IRType *LT = CGM.convertType(PT->getPointeeType());
  // Constant distance functions ("*Result = <literal>") fold directly so
  // the trip count stays identifiable as a constant (enabling full
  // unrolling in the mid-end without store/load forwarding).
  if (const auto *Assign =
          stmt_dyn_cast<BinaryOperator>(Dist->getCapturedStmt()))
    if (auto V = evaluateInteger(Assign->getRHS()))
      return B.getInt(LT, *V);
  Instruction *Tmp = B.createAllocaInEntry(LT, 1, "omp.distance");
  std::vector<ir::Value *> Params = {Tmp};
  emitCapturedFunctionInline(Dist, Params);
  return B.createLoad(LT, Tmp, "omp.tripcount");
}

void CodeGenFunction::emitCanonicalLoopVarBinding(const OMPCanonicalLoop *CL,
                                                  ir::Value *IV) {
  const ValueDecl *UserVar = CL->getLoopVarRef()->getDecl();
  auto It = LocalAddrs.find(UserVar);
  ir::Value *VarAddr;
  if (It != LocalAddrs.end()) {
    VarAddr = It->second;
  } else {
    VarAddr = B.createAllocaInEntry(CGM.convertType(UserVar->getType()), 1,
                                    std::string(UserVar->getName()));
    LocalAddrs[UserVar] = VarAddr;
  }
  const CapturedStmt *LVF = CL->getLoopVarFunc();
  const ImplicitParamDecl *LogicalParam =
      LVF->getCapturedDecl()->getParam(1);
  ir::Value *Logical = B.createIntCast(
      IV, CGM.convertType(LogicalParam->getType()), false, "omp.logical");
  std::vector<ir::Value *> Params = {VarAddr, Logical};
  emitCapturedFunctionInline(LVF, Params);
}

std::vector<ir::CanonicalLoopInfo *>
CodeGenFunction::emitCanonicalLoopNest(const OMPCanonicalLoop *Outer) {
  // Collect the perfect nest of OMPCanonicalLoop wrappers.
  std::vector<const OMPCanonicalLoop *> Nest;
  const OMPCanonicalLoop *Cur = Outer;
  while (Cur) {
    Nest.push_back(Cur);
    const auto *For = stmt_cast<ForStmt>(Cur->getLoopStmt());
    const Stmt *Body = For->getBody();
    while (const auto *CS = stmt_dyn_cast<CompoundStmt>(Body)) {
      if (CS->size() != 1)
        break;
      Body = CS->body()[0];
    }
    Cur = stmt_dyn_cast<OMPCanonicalLoop>(Body);
  }
  const unsigned N = static_cast<unsigned>(Nest.size());

  // Hoist the distance computations: evaluate every loop's trip count
  // before the outermost skeleton (required for tileLoops/collapseLoops to
  // compute floor counts in the outermost preheader).
  std::vector<ir::Value *> TripCounts(N);
  for (unsigned K = 0; K < N; ++K)
    TripCounts[K] = emitCanonicalDistance(Nest[K]);

  // Create the skeletons, nesting via the BodyGen callbacks. The
  // innermost body materializes every loop's user variable via its
  // loop-variable function, then emits the original body.
  std::vector<ir::CanonicalLoopInfo *> CLIs(N);
  std::vector<ir::Value *> IVs(N);

  std::function<void(unsigned)> EmitLevel = [&](unsigned K) {
    CLIs[K] = OMPB.createCanonicalLoop(
        B, TripCounts[K],
        [&, K](IRBuilder &, ir::Value *IV) {
          IVs[K] = IV;
          if (K + 1 < N) {
            EmitLevel(K + 1);
            return;
          }
          // Innermost: bind user variables, then the body.
          for (unsigned J = 0; J < N; ++J)
            emitCanonicalLoopVarBinding(Nest[J], IVs[J]);
          emitStmt(stmt_cast<ForStmt>(Nest[N - 1]->getLoopStmt())->getBody());
        },
        "omp_loop");
  };
  EmitLevel(0);
  return CLIs;
}

std::vector<ir::CanonicalLoopInfo *>
CodeGenFunction::emitLoopConstruct(const Stmt *S) {
  while (const auto *CS = stmt_dyn_cast<CompoundStmt>(S)) {
    assert(CS->size() == 1);
    S = CS->body()[0];
  }
  if (const auto *CL = stmt_dyn_cast<OMPCanonicalLoop>(S))
    return emitCanonicalLoopNest(CL);

  if (const auto *UD = stmt_dyn_cast<OMPUnrollDirective>(S)) {
    std::vector<CanonicalLoopInfo *> Inner =
        emitLoopConstruct(UD->getAssociatedStmt());
    unsigned Factor = CGM.getLangOpts().HeuristicUnrollFactor;
    if (const auto *PC = UD->getSingleClause<OMPPartialClause>())
      if (PC->getFactor())
        Factor = static_cast<unsigned>(PC->getFactor()->getResult());
    CanonicalLoopInfo *Unrolled = nullptr;
    OMPB.unrollLoopPartial(Inner[0], Factor, &Unrolled);
    return {Unrolled};
  }
  if (const auto *TD = stmt_dyn_cast<OMPTileDirective>(S)) {
    std::vector<CanonicalLoopInfo *> Inner =
        emitLoopConstruct(TD->getAssociatedStmt());
    const auto *Sizes = TD->getSingleClause<OMPSizesClause>();
    std::vector<ir::Value *> SizeVals;
    for (unsigned K = 0; K < Sizes->getNumSizes(); ++K)
      SizeVals.push_back(B.getInt(Inner[K]->getTripCount()->getType(),
                                  Sizes->getSize(K)));
    std::vector<CanonicalLoopInfo *> Consumed(
        Inner.begin(),
        Inner.begin() + static_cast<std::ptrdiff_t>(Sizes->getNumSizes()));
    return OMPB.tileLoops(Consumed, SizeVals);
  }
  if (const auto *RD = stmt_dyn_cast<OMPReverseDirective>(S)) {
    std::vector<CanonicalLoopInfo *> Inner =
        emitLoopConstruct(RD->getAssociatedStmt());
    OMPB.reverseLoop(Inner[0]);
    return Inner;
  }
  if (const auto *ID = stmt_dyn_cast<OMPInterchangeDirective>(S)) {
    std::vector<CanonicalLoopInfo *> Inner =
        emitLoopConstruct(ID->getAssociatedStmt());
    std::vector<unsigned> Perm = ID->getPermutation();
    std::vector<CanonicalLoopInfo *> Consumed(
        Inner.begin(),
        Inner.begin() + static_cast<std::ptrdiff_t>(Perm.size()));
    return OMPB.interchangeLoops(Consumed, Perm);
  }
  if (const auto *FD = stmt_dyn_cast<OMPFuseDirective>(S))
    return {emitOMPFuseIRBuilder(FD)};
  assert(false && "unexpected statement in IRBuilder loop construct");
  return {};
}

ir::CanonicalLoopInfo *
CodeGenFunction::emitOMPFuseIRBuilder(const OMPFuseDirective *D) {
  // The associated statement is the original sibling sequence; the members
  // selected by looprange lower to canonical-loop chains whose outermost
  // handles OpenMPIRBuilder::fuseLoops merges. Siblings outside the range
  // are emitted unchanged around the fused loop.
  const auto *CS = stmt_cast<CompoundStmt>(D->getAssociatedStmt());
  std::span<Stmt *const> Sibs = CS->body();
  const unsigned First = D->getFirstLoopIndex();
  const unsigned Count = D->getLoopsNumber();
  for (unsigned K = 0; K < First; ++K)
    emitStmt(Sibs[K]);
  std::vector<CanonicalLoopInfo *> Members;
  for (unsigned K = 0; K < Count; ++K)
    Members.push_back(emitLoopConstruct(Sibs[First + K]).front());
  CanonicalLoopInfo *Fused = OMPB.fuseLoops(Members);
  for (unsigned K = First + Count; K < Sibs.size(); ++K)
    emitStmt(Sibs[K]);
  return Fused;
}

void CodeGenFunction::emitOMPDistributeLoopIRBuilder(
    const OMPDistributeLoopDirective *D) {
  const Stmt *S = D->getAssociatedStmt();
  while (const auto *Wrap = stmt_dyn_cast<CompoundStmt>(S)) {
    assert(Wrap->size() == 1);
    S = Wrap->body()[0];
  }
  const auto *CL = stmt_cast<OMPCanonicalLoop>(S);
  const auto *For = stmt_cast<ForStmt>(CL->getLoopStmt());
  // Sema guarantees the body is a compound of >= 2 statement groups with
  // no locals referenced across groups: one canonical loop per group, all
  // sharing the hoisted trip count, runs the groups in source order.
  const auto *Groups = stmt_cast<CompoundStmt>(For->getBody());
  ir::Value *Trip = emitCanonicalDistance(CL);
  for (const Stmt *Group : Groups->body())
    OMPB.createCanonicalLoop(
        B, Trip,
        [&](IRBuilder &, ir::Value *IV) {
          emitCanonicalLoopVarBinding(CL, IV);
          emitStmt(Group);
        },
        "omp_dist");
}

void CodeGenFunction::emitOMPLoopBasedDirectiveIRBuilder(
    const OMPLoopBasedDirective *D) {
  OpenMPDirectiveKind Kind = D->getDirectiveKind();

  // Combined parallel: outline first, then emit the loop machinery inside
  // the outlined function.
  if (isOpenMPParallelDirective(Kind)) {
    const auto *CS = stmt_cast<CapturedStmt>(D->getAssociatedStmt());
    std::vector<const VarDecl *> Captures;
    for (const CapturedStmt::Capture &Cap : CS->captures())
      Captures.push_back(Cap.Var);

    ir::Function *Outlined = CGM.getModule().createFunction(
        CGM.makeOutlinedName(std::string(CurFnDecl->getName())),
        IRType::getVoid(),
        {IRType::getPtr(), IRType::getPtr(), IRType::getPtr()},
        {".global_tid.", ".bound_tid.", "__context"});
    CodeGenFunction CGF(CGM);
    CGF.CurFn = Outlined;
    CGF.CurFnDecl = CurFnDecl;
    CGF.B.setInsertPoint(Outlined->createBlock("entry"));
    Argument *Ctx = Outlined->getArg(2);
    for (std::size_t I = 0; I < Captures.size(); ++I) {
      ir::Value *SlotPtr = CGF.B.createGEP(
          IRType::getPtr(), Ctx, CGF.B.getI64(static_cast<std::int64_t>(I)));
      CGF.LocalAddrs[Captures[I]] =
          CGF.B.createLoad(IRType::getPtr(), SlotPtr,
                           std::string(Captures[I]->getName()) + ".addr");
    }
    std::vector<ReductionInfo> Reductions =
        CGF.emitPrivatizationClauses(D->clauses());

    // The chunk size (if any) must be emitted before the loop skeletons so
    // that it dominates the preheader applyWorkshareLoop modifies.
    const auto *Sched = D->getSingleClause<OMPScheduleClause>();
    OMPScheduleType SchedTy = OMPScheduleType::Static;
    ir::Value *Chunk = nullptr;
    if (Sched) {
      if (Sched->getChunkSize())
        Chunk = CGF.B.createIntCast(CGF.emitExpr(Sched->getChunkSize()),
                                    IRType::getI64(), true, "chunk");
      switch (Sched->getScheduleKind()) {
      case OpenMPScheduleKind::Dynamic:
      case OpenMPScheduleKind::Auto:
      case OpenMPScheduleKind::Runtime:
        SchedTy = OMPScheduleType::DynamicChunked;
        break;
      case OpenMPScheduleKind::Guided:
        SchedTy = OMPScheduleType::GuidedChunked;
        break;
      default:
        SchedTy = Chunk ? OMPScheduleType::StaticChunked
                        : OMPScheduleType::Static;
        break;
      }
    }

    // Inside the outlined function: emit the loop chain and apply the
    // worksharing operation.
    std::vector<CanonicalLoopInfo *> CLIs =
        CGF.emitLoopConstruct(CS->getCapturedStmt());
    CanonicalLoopInfo *Target = CLIs[0];
    unsigned NumLoops = D->getLoopsNumber();
    if (NumLoops > 1 && CLIs.size() >= NumLoops)
      Target = CGF.OMPB.collapseLoops(
          {CLIs.begin(), CLIs.begin() + NumLoops});
    CGF.OMPB.applyWorkshareLoop(Target, SchedTy, Chunk, /*NoWait=*/false);
    if (Kind == OpenMPDirectiveKind::ForSimd)
      CGF.OMPB.applySimd(Target);
    CGF.emitReductionFinalization(Reductions);
    if (!CGF.B.isBlockTerminated())
      CGF.B.createRetVoid();

    std::vector<ir::Value *> CaptureAddrs;
    for (const VarDecl *V : Captures)
      CaptureAddrs.push_back(addressOfDecl(V));
    ir::Value *NumThreads = nullptr;
    if (const auto *NT = D->getSingleClause<OMPNumThreadsClause>())
      NumThreads = B.createIntCast(emitExpr(NT->getNumThreads()),
                                   IRType::getI32(), true, "numthreads");
    emitForkCall(*this, B, OMPB, Outlined, CaptureAddrs, NumThreads);
    return;
  }

  std::vector<ReductionInfo> Reductions =
      emitPrivatizationClauses(D->clauses());

  // fuse/distribute_loop associate with statement sequences (or a loop
  // whose body is split), not a single canonical-loop chain; they bypass
  // the common emitLoopConstruct entry.
  if (Kind == OpenMPDirectiveKind::Fuse) {
    emitOMPFuseIRBuilder(stmt_cast<OMPFuseDirective>(D));
    emitReductionFinalization(Reductions);
    return;
  }
  if (Kind == OpenMPDirectiveKind::DistributeLoop) {
    emitOMPDistributeLoopIRBuilder(stmt_cast<OMPDistributeLoopDirective>(D));
    emitReductionFinalization(Reductions);
    return;
  }

  // Chunk size must be emitted before the loop skeletons so it dominates
  // the preheader applyWorkshareLoop modifies.
  const auto *Sched = D->getSingleClause<OMPScheduleClause>();
  ir::Value *Chunk = nullptr;
  if (Sched && Sched->getChunkSize())
    Chunk = B.createIntCast(emitExpr(Sched->getChunkSize()),
                            IRType::getI64(), true, "chunk");

  std::vector<CanonicalLoopInfo *> CLIs =
      emitLoopConstruct(D->getAssociatedStmt());

  switch (Kind) {
  case OpenMPDirectiveKind::For:
  case OpenMPDirectiveKind::ForSimd: {
    CanonicalLoopInfo *Target = CLIs[0];
    unsigned NumLoops = D->getLoopsNumber();
    if (NumLoops > 1 && CLIs.size() >= NumLoops)
      Target = OMPB.collapseLoops({CLIs.begin(), CLIs.begin() + NumLoops});
    OMPScheduleType SchedTy = OMPScheduleType::Static;
    if (Sched) {
      switch (Sched->getScheduleKind()) {
      case OpenMPScheduleKind::Dynamic:
      case OpenMPScheduleKind::Auto:
      case OpenMPScheduleKind::Runtime:
        SchedTy = OMPScheduleType::DynamicChunked;
        break;
      case OpenMPScheduleKind::Guided:
        SchedTy = OMPScheduleType::GuidedChunked;
        break;
      default:
        SchedTy = Chunk ? OMPScheduleType::StaticChunked
                        : OMPScheduleType::Static;
        break;
      }
    }
    bool NoWait = D->getSingleClause<OMPNoWaitClause>() != nullptr;
    OMPB.applyWorkshareLoop(Target, SchedTy, Chunk, NoWait);
    if (Kind == OpenMPDirectiveKind::ForSimd)
      OMPB.applySimd(Target);
    break;
  }
  case OpenMPDirectiveKind::Simd: {
    CanonicalLoopInfo *Target = CLIs[0];
    unsigned NumLoops = D->getLoopsNumber();
    if (NumLoops > 1 && CLIs.size() >= NumLoops)
      Target = OMPB.collapseLoops({CLIs.begin(), CLIs.begin() + NumLoops});
    OMPB.applySimd(Target);
    break;
  }
  case OpenMPDirectiveKind::Tile: {
    // Standalone tile: the associated statement is the canonical-loop
    // nest; transformation applied here.
    const auto *Sizes = D->getSingleClause<OMPSizesClause>();
    std::vector<ir::Value *> SizeVals;
    for (unsigned K = 0; K < Sizes->getNumSizes(); ++K)
      SizeVals.push_back(B.getInt(CLIs[K]->getTripCount()->getType(),
                                  Sizes->getSize(K)));
    std::vector<CanonicalLoopInfo *> Consumed(
        CLIs.begin(),
        CLIs.begin() + static_cast<std::ptrdiff_t>(Sizes->getNumSizes()));
    OMPB.tileLoops(Consumed, SizeVals);
    break;
  }
  case OpenMPDirectiveKind::Unroll: {
    const auto *UD = stmt_cast<OMPUnrollDirective>(D);
    if (UD->hasFullClause())
      OMPB.unrollLoopFull(CLIs[0]);
    else if (const auto *PC = UD->getSingleClause<OMPPartialClause>()) {
      unsigned Factor =
          PC->getFactor()
              ? static_cast<unsigned>(PC->getFactor()->getResult())
              : CGM.getLangOpts().HeuristicUnrollFactor;
      OMPB.unrollLoopPartial(CLIs[0], Factor, nullptr);
    } else {
      OMPB.unrollLoopHeuristic(CLIs[0]);
    }
    break;
  }
  case OpenMPDirectiveKind::Reverse: {
    // Standalone reverse: apply the transformation to the canonical loop.
    OMPB.reverseLoop(CLIs[0]);
    break;
  }
  case OpenMPDirectiveKind::Interchange: {
    const auto *ID = stmt_cast<OMPInterchangeDirective>(D);
    std::vector<unsigned> Perm = ID->getPermutation();
    std::vector<CanonicalLoopInfo *> Consumed(
        CLIs.begin(),
        CLIs.begin() + static_cast<std::ptrdiff_t>(Perm.size()));
    OMPB.interchangeLoops(Consumed, Perm);
    break;
  }
  default:
    assert(false);
  }
  emitReductionFinalization(Reductions);
}

} // namespace mcc
