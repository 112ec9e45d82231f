//===--- CodeGenFunction.cpp - Statement and expression emission -----------===//
#include "codegen/CodeGenFunction.h"

#include "ast/ExprConstant.h"

namespace mcc {

using namespace ir;

namespace {
bool isSignedAST(QualType T) {
  return T->isSignedIntegerType();
}
} // namespace

void CodeGenFunction::emitFunction(const FunctionDecl *FD) {
  CurFnDecl = FD;
  CurFn = CGM.getOrCreateFunction(FD);
  BasicBlock *Entry = CurFn->createBlock("entry");
  B.setInsertPoint(Entry);

  // Spill parameters to allocas so they are addressable (Clang's scheme).
  for (unsigned I = 0; I < FD->getNumParams(); ++I) {
    const ParmVarDecl *P = FD->parameters()[I];
    Instruction *Slot = B.createAlloca(CGM.convertType(P->getType()),
                                       nullptr, std::string(P->getName()) +
                                                    ".addr");
    B.createStore(CurFn->getArg(I), Slot);
    LocalAddrs[P] = Slot;
  }

  emitStmt(FD->getBody());

  // Implicit return.
  if (!B.isBlockTerminated()) {
    if (CurFn->getReturnType()->isVoid())
      B.createRetVoid();
    else if (CurFn->getReturnType()->isDouble())
      B.createRet(B.getDouble(0));
    else
      B.createRet(B.getInt(CurFn->getReturnType(), 0));
  }
  // Unreachable-code blocks created after break/continue/return may be
  // left open; close them.
  for (const auto &BB : CurFn->blocks())
    if (!BB->getTerminator()) {
      B.setInsertPoint(BB.get());
      B.createUnreachable();
    }
}

ir::Value *CodeGenFunction::addressOfDecl(const ValueDecl *D) {
  auto It = LocalAddrs.find(D);
  if (It != LocalAddrs.end())
    return It->second;
  if (const auto *VD = decl_dyn_cast<VarDecl>(D))
    if (VD->isFileScope())
      return CGM.getOrCreateGlobal(VD);
#ifndef NDEBUG
  fprintf(stderr, "codegen: no storage for declaration '%s'\n",
          std::string(D->getName()).c_str());
#endif
  assert(false && "no storage for declaration");
  return nullptr;
}

// ===------------------------- Statements -----------------------------=== //

void CodeGenFunction::emitStmt(const Stmt *S) {
  if (!S)
    return;
  // Code after a terminator (break/continue/return) is unreachable; give
  // it its own block so emission can proceed structurally.
  if (B.isBlockTerminated())
    B.setInsertPoint(CurFn->createBlock("unreachable"));

  switch (S->getStmtClass()) {
  case Stmt::StmtClass::NullStmt:
    return;
  case Stmt::StmtClass::CompoundStmt:
    return emitCompoundStmt(stmt_cast<CompoundStmt>(S));
  case Stmt::StmtClass::DeclStmt:
    return emitDeclStmt(stmt_cast<DeclStmt>(S));
  case Stmt::StmtClass::IfStmt:
    return emitIfStmt(stmt_cast<IfStmt>(S));
  case Stmt::StmtClass::WhileStmt:
    return emitWhileStmt(stmt_cast<WhileStmt>(S));
  case Stmt::StmtClass::DoStmt:
    return emitDoStmt(stmt_cast<DoStmt>(S));
  case Stmt::StmtClass::ForStmt:
    return emitForStmt(stmt_cast<ForStmt>(S));
  case Stmt::StmtClass::ReturnStmt:
    return emitReturnStmt(stmt_cast<ReturnStmt>(S));
  case Stmt::StmtClass::BreakStmt:
    assert(!LoopStack.empty());
    B.createBr(LoopStack.back().BreakTarget);
    return;
  case Stmt::StmtClass::ContinueStmt:
    assert(!LoopStack.empty());
    B.createBr(LoopStack.back().ContinueTarget);
    return;
  case Stmt::StmtClass::AttributedStmt:
    return emitAttributedStmt(stmt_cast<AttributedStmt>(S));
  case Stmt::StmtClass::CapturedStmt:
    // A bare CapturedStmt executes its captured statement inline.
    return emitStmt(stmt_cast<CapturedStmt>(S)->getCapturedStmt());
  case Stmt::StmtClass::OMPCanonicalLoop:
    // Outside an OpenMP directive the wrapper is transparent.
    return emitStmt(stmt_cast<OMPCanonicalLoop>(S)->getLoopStmt());
  default:
    if (const auto *D = stmt_dyn_cast<OMPExecutableDirective>(S))
      return emitOMPDirective(D);
    if (const auto *E = stmt_dyn_cast<Expr>(S)) {
      emitExpr(E);
      return;
    }
    assert(false && "unhandled statement class in CodeGen");
  }
}

void CodeGenFunction::emitCompoundStmt(const CompoundStmt *S) {
  for (const Stmt *Child : S->body())
    emitStmt(Child);
}

void CodeGenFunction::emitDeclStmt(const DeclStmt *S) {
  for (const VarDecl *VD : S->decls())
    emitVarDecl(VD);
}

void CodeGenFunction::emitVarDecl(const VarDecl *VD) {
  // All allocas go to the entry block (Clang's convention); this also
  // guarantees one allocation per activation even for declarations inside
  // loops.
  auto [ElemTy, Count] = CGM.convertTypeForMem(VD->getType());
  Instruction *Slot =
      B.createAllocaInEntry(ElemTy, Count, std::string(VD->getName()));
  LocalAddrs[VD] = Slot;
  if (VD->hasInit() && !VD->getType()->isArrayType())
    B.createStore(emitExpr(VD->getInit()), Slot);
}

void CodeGenFunction::emitIfStmt(const IfStmt *S) {
  Value *Cond = emitCondition(S->getCond());
  BasicBlock *ThenBB = CurFn->createBlock("if.then");
  BasicBlock *EndBB = CurFn->createBlock("if.end");
  BasicBlock *ElseBB = S->hasElse() ? CurFn->createBlock("if.else") : EndBB;
  B.createCondBr(Cond, ThenBB, ElseBB);

  B.setInsertPoint(ThenBB);
  emitStmt(S->getThen());
  if (!B.isBlockTerminated())
    B.createBr(EndBB);

  if (S->hasElse()) {
    B.setInsertPoint(ElseBB);
    emitStmt(S->getElse());
    if (!B.isBlockTerminated())
      B.createBr(EndBB);
  }
  B.setInsertPoint(EndBB);
}

void CodeGenFunction::emitWhileStmt(const WhileStmt *S) {
  BasicBlock *CondBB = CurFn->createBlock("while.cond");
  BasicBlock *BodyBB = CurFn->createBlock("while.body");
  BasicBlock *EndBB = CurFn->createBlock("while.end");
  B.createBr(CondBB);
  B.setInsertPoint(CondBB);
  B.createCondBr(emitCondition(S->getCond()), BodyBB, EndBB);
  B.setInsertPoint(BodyBB);
  LoopStack.push_back({EndBB, CondBB});
  emitStmt(S->getBody());
  LoopStack.pop_back();
  if (!B.isBlockTerminated())
    B.createBr(CondBB);
  B.setInsertPoint(EndBB);
}

void CodeGenFunction::emitDoStmt(const DoStmt *S) {
  BasicBlock *BodyBB = CurFn->createBlock("do.body");
  BasicBlock *CondBB = CurFn->createBlock("do.cond");
  BasicBlock *EndBB = CurFn->createBlock("do.end");
  B.createBr(BodyBB);
  B.setInsertPoint(BodyBB);
  LoopStack.push_back({EndBB, CondBB});
  emitStmt(S->getBody());
  LoopStack.pop_back();
  if (!B.isBlockTerminated())
    B.createBr(CondBB);
  B.setInsertPoint(CondBB);
  B.createCondBr(emitCondition(S->getCond()), BodyBB, EndBB);
  B.setInsertPoint(EndBB);
}

void CodeGenFunction::emitForStmt(const ForStmt *S, ir::LoopMetadata MD) {
  if (S->getInit())
    emitStmt(S->getInit());
  BasicBlock *CondBB = CurFn->createBlock("for.cond");
  BasicBlock *BodyBB = CurFn->createBlock("for.body");
  BasicBlock *IncBB = CurFn->createBlock("for.inc");
  BasicBlock *EndBB = CurFn->createBlock("for.end");
  B.createBr(CondBB);
  B.setInsertPoint(CondBB);
  if (S->getCond())
    B.createCondBr(emitCondition(S->getCond()), BodyBB, EndBB);
  else
    B.createBr(BodyBB);
  B.setInsertPoint(BodyBB);
  LoopStack.push_back({EndBB, IncBB});
  emitStmt(S->getBody());
  LoopStack.pop_back();
  if (!B.isBlockTerminated())
    B.createBr(IncBB);
  B.setInsertPoint(IncBB);
  if (S->getInc())
    emitExpr(S->getInc());
  Instruction *LatchBr = B.createBr(CondBB);
  LatchBr->LoopMD = MD; // llvm.loop.* metadata lives on the latch branch
  B.setInsertPoint(EndBB);
}

void CodeGenFunction::emitReturnStmt(const ReturnStmt *S) {
  if (S->getValue())
    B.createRet(emitExpr(S->getValue()));
  else
    B.createRetVoid();
}

void CodeGenFunction::emitAttributedStmt(const AttributedStmt *S) {
  // LoopHintAttr on a loop becomes llvm.loop.unroll.* metadata, consumed
  // by the mid-end LoopUnroll pass (paper Section 2.2: "No duplication
  // takes place until that point").
  LoopMetadata MD;
  for (const Attr *A : S->getAttrs()) {
    const auto *LH = static_cast<const LoopHintAttr *>(A);
    switch (LH->getOption()) {
    case LoopHintAttr::OptionKind::UnrollCount:
      MD.UnrollCount = static_cast<unsigned>(
          evaluateInteger(LH->getValue()).value_or(0));
      break;
    case LoopHintAttr::OptionKind::UnrollEnable:
      MD.UnrollEnable = true;
      break;
    case LoopHintAttr::OptionKind::UnrollFull:
      MD.UnrollFull = true;
      break;
    case LoopHintAttr::OptionKind::Vectorize:
      MD.Vectorize = true;
      break;
    }
  }
  if (const auto *For = stmt_dyn_cast<ForStmt>(S->getSubStmt()))
    emitForStmt(For, MD);
  else
    emitStmt(S->getSubStmt());
}

// ===------------------------ Expressions -----------------------------=== //

ir::Value *CodeGenFunction::emitLValue(const Expr *E) {
  switch (E->getStmtClass()) {
  case Stmt::StmtClass::DeclRefExpr:
    return addressOfDecl(stmt_cast<DeclRefExpr>(E)->getDecl());
  case Stmt::StmtClass::ParenExpr:
    return emitLValue(stmt_cast<ParenExpr>(E)->getSubExpr());
  case Stmt::StmtClass::UnaryOperator: {
    const auto *UO = stmt_cast<UnaryOperator>(E);
    assert(UO->getOpcode() == UnaryOperatorKind::Deref);
    return emitExpr(UO->getSubExpr());
  }
  case Stmt::StmtClass::ArraySubscriptExpr: {
    const auto *AS = stmt_cast<ArraySubscriptExpr>(E);
    Value *Base = emitExpr(AS->getBase());
    Value *Index = emitExpr(AS->getIndex());
    Index = B.createIntCast(Index, IRType::getI64(),
                            isSignedAST(AS->getIndex()->getType()), "idx");
    return B.createGEP(CGM.convertType(E->getType()), Base, Index,
                       "arrayidx");
  }
  case Stmt::StmtClass::ImplicitCastExpr: {
    const auto *ICE = stmt_cast<ImplicitCastExpr>(E);
    if (ICE->getCastKind() == CastKind::NoOp)
      return emitLValue(ICE->getSubExpr());
    break;
  }
  default:
    break;
  }
  assert(false && "not an emittable lvalue");
  return nullptr;
}

ir::Value *CodeGenFunction::emitCondition(const Expr *E) {
  Value *V = emitExpr(E);
  if (V->getType() == IRType::getI1())
    return V;
  // A bool conversion just widened an i1, such as a compare: branch on
  // the i1, as clang's EmitIntToBoolConversion does, rather than on
  // `icmp ne` of the `zext i1 to i8`. The zext goes only while it ends the
  // block, where nothing can use it yet; a stored one, as in
  // `if ((b = x < y))`, stays.
  if (auto *Z = ir_dyn_cast<Instruction>(V);
      Z && Z->getOpcode() == Opcode::ZExt &&
      Z->getOperand(0)->getType() == IRType::getI1()) {
    BasicBlock *BB = B.getInsertBlock();
    if (!BB->empty() && BB->instructions().back().get() == Z) {
      Value *Cmp = Z->getOperand(0);
      BB->erase(BB->size() - 1);
      return Cmp;
    }
  }
  if (V->getType()->isDouble())
    return B.createFCmp(CmpPred::ONE, V, B.getDouble(0), "tobool");
  return B.createICmp(CmpPred::NE, V, B.getInt(V->getType(), 0), "tobool");
}

ir::Value *CodeGenFunction::emitExpr(const Expr *E) {
  switch (E->getStmtClass()) {
  case Stmt::StmtClass::IntegerLiteral:
    return B.getInt(CGM.convertType(E->getType()),
                    static_cast<std::int64_t>(
                        stmt_cast<IntegerLiteral>(E)->getValue()));
  case Stmt::StmtClass::FloatingLiteral:
    return B.getDouble(stmt_cast<FloatingLiteral>(E)->getValue());
  case Stmt::StmtClass::BoolLiteral:
    return B.getInt(IRType::getI8(),
                    stmt_cast<BoolLiteral>(E)->getValue() ? 1 : 0);
  case Stmt::StmtClass::ConstantExpr:
    return B.getInt(CGM.convertType(E->getType()),
                    stmt_cast<ConstantExpr>(E)->getResult());
  case Stmt::StmtClass::ParenExpr:
    return emitExpr(stmt_cast<ParenExpr>(E)->getSubExpr());
  case Stmt::StmtClass::DeclRefExpr: {
    const ValueDecl *D = stmt_cast<DeclRefExpr>(E)->getDecl();
    if (const auto *FD = decl_dyn_cast<FunctionDecl>(D))
      return CGM.getOrCreateFunction(FD);
    // Raw DeclRefExpr in rvalue position (synthesized code): load.
    return B.createLoad(CGM.convertType(E->getType()), addressOfDecl(D),
                        std::string(D->getName()));
  }
  case Stmt::StmtClass::ImplicitCastExpr: {
    const auto *ICE = stmt_cast<ImplicitCastExpr>(E);
    const Expr *Sub = ICE->getSubExpr();
    switch (ICE->getCastKind()) {
    case CastKind::LValueToRValue:
      return B.createLoad(CGM.convertType(E->getType()), emitLValue(Sub));
    case CastKind::IntegralCast:
      return B.createIntCast(emitExpr(Sub), CGM.convertType(E->getType()),
                             isSignedAST(Sub->getType()), "conv");
    case CastKind::IntegralToBoolean: {
      Value *V = emitExpr(Sub);
      Value *Cmp =
          B.createICmp(CmpPred::NE, V, B.getInt(V->getType(), 0), "tobool");
      return B.createCast(Opcode::ZExt, Cmp, IRType::getI8(), "frombool");
    }
    case CastKind::IntegralToFloating:
      return B.createCast(isSignedAST(Sub->getType()) ? Opcode::SIToFP
                                                      : Opcode::UIToFP,
                          emitExpr(Sub), IRType::getDouble(), "conv");
    case CastKind::FloatingToIntegral:
      return B.createCast(isSignedAST(E->getType()) ? Opcode::FPToSI
                                                    : Opcode::FPToUI,
                          emitExpr(Sub), CGM.convertType(E->getType()),
                          "conv");
    case CastKind::FloatingCast:
      return emitExpr(Sub); // single fp type
    case CastKind::FloatingToBoolean: {
      Value *Cmp = B.createFCmp(CmpPred::ONE, emitExpr(Sub), B.getDouble(0),
                                "tobool");
      return B.createCast(Opcode::ZExt, Cmp, IRType::getI8(), "frombool");
    }
    case CastKind::PointerToBoolean: {
      Value *Cmp = B.createICmp(CmpPred::NE, emitExpr(Sub),
                                CGM.getModule().getNullPtr(), "tobool");
      return B.createCast(Opcode::ZExt, Cmp, IRType::getI8(), "frombool");
    }
    case CastKind::ArrayToPointerDecay:
      return emitLValue(Sub);
    case CastKind::FunctionToPointerDecay:
    case CastKind::NoOp:
      return emitExpr(Sub);
    }
    return nullptr;
  }
  case Stmt::StmtClass::UnaryOperator: {
    const auto *UO = stmt_cast<UnaryOperator>(E);
    switch (UO->getOpcode()) {
    case UnaryOperatorKind::Plus:
      return emitExpr(UO->getSubExpr());
    case UnaryOperatorKind::Minus: {
      Value *V = emitExpr(UO->getSubExpr());
      if (V->getType()->isDouble())
        return B.createBinOp(Opcode::FSub, B.getDouble(0), V, "neg");
      return B.createSub(B.getInt(V->getType(), 0), V, "neg");
    }
    case UnaryOperatorKind::LNot: {
      Value *Cond = emitCondition(UO->getSubExpr());
      Value *Inverted =
          B.createBinOp(Opcode::Xor, Cond, B.getI1(true), "lnot");
      return B.createCast(Opcode::ZExt, Inverted, IRType::getI8(),
                          "frombool");
    }
    case UnaryOperatorKind::Not: {
      Value *V = emitExpr(UO->getSubExpr());
      return B.createBinOp(Opcode::Xor, V, B.getInt(V->getType(), -1),
                           "not");
    }
    case UnaryOperatorKind::Deref:
      // Rvalue use of *p without an LValueToRValue wrapper only occurs
      // for void-typed expression statements.
      return B.createLoad(CGM.convertType(E->getType()), emitLValue(E));
    case UnaryOperatorKind::AddrOf:
      return emitLValue(UO->getSubExpr());
    case UnaryOperatorKind::PreInc:
    case UnaryOperatorKind::PreDec:
    case UnaryOperatorKind::PostInc:
    case UnaryOperatorKind::PostDec: {
      bool IsInc = UO->isIncrementOp();
      Value *Addr = emitLValue(UO->getSubExpr());
      QualType Ty = UO->getSubExpr()->getType();
      Value *Old = B.createLoad(CGM.convertType(Ty), Addr);
      Value *New;
      if (Ty->isPointerType()) {
        const auto *PT = type_cast<PointerType>(Ty.getTypePtr());
        New = B.createGEP(CGM.convertType(PT->getPointeeType()), Old,
                          B.getI64(IsInc ? 1 : -1), "incdec.ptr");
      } else if (Ty->isFloatingType()) {
        New = B.createBinOp(IsInc ? Opcode::FAdd : Opcode::FSub, Old,
                            B.getDouble(1), "incdec");
      } else {
        New = B.createBinOp(IsInc ? Opcode::Add : Opcode::Sub, Old,
                            B.getInt(Old->getType(), 1), "incdec");
      }
      B.createStore(New, Addr);
      return UO->isPrefix() ? New : Old;
    }
    }
    return nullptr;
  }
  case Stmt::StmtClass::BinaryOperator: {
    const auto *BO = stmt_cast<BinaryOperator>(E);
    BinaryOperatorKind Opc = BO->getOpcode();

    if (Opc == BinaryOperatorKind::Assign) {
      Value *Addr = emitLValue(BO->getLHS());
      Value *V = emitExpr(BO->getRHS());
      B.createStore(V, Addr);
      return V;
    }
    if (BO->isCompoundAssignmentOp()) {
      Value *Addr = emitLValue(BO->getLHS());
      QualType Ty = BO->getLHS()->getType();
      Value *Old = B.createLoad(CGM.convertType(Ty), Addr);
      Value *RHS = emitExpr(BO->getRHS());
      Value *New;
      BinaryOperatorKind Sub = BO->getCompoundOpcode();
      if (Ty->isPointerType()) {
        const auto *PT = type_cast<PointerType>(Ty.getTypePtr());
        Value *Index = B.createIntCast(RHS, IRType::getI64(),
                                       isSignedAST(BO->getRHS()->getType()),
                                       "idx");
        if (Sub == BinaryOperatorKind::Sub)
          Index = B.createSub(B.getI64(0), Index, "negidx");
        New = B.createGEP(CGM.convertType(PT->getPointeeType()), Old, Index,
                          "add.ptr");
      } else if (Ty->isFloatingType()) {
        Opcode FOp = Sub == BinaryOperatorKind::Add   ? Opcode::FAdd
                     : Sub == BinaryOperatorKind::Sub ? Opcode::FSub
                     : Sub == BinaryOperatorKind::Mul ? Opcode::FMul
                                                      : Opcode::FDiv;
        New = B.createBinOp(FOp, Old, RHS, "compound");
      } else {
        bool Signed = isSignedAST(Ty);
        Opcode IOp;
        switch (Sub) {
        case BinaryOperatorKind::Add:
          IOp = Opcode::Add;
          break;
        case BinaryOperatorKind::Sub:
          IOp = Opcode::Sub;
          break;
        case BinaryOperatorKind::Mul:
          IOp = Opcode::Mul;
          break;
        case BinaryOperatorKind::Div:
          IOp = Signed ? Opcode::SDiv : Opcode::UDiv;
          break;
        case BinaryOperatorKind::Rem:
          IOp = Signed ? Opcode::SRem : Opcode::URem;
          break;
        case BinaryOperatorKind::And:
          IOp = Opcode::And;
          break;
        case BinaryOperatorKind::Or:
          IOp = Opcode::Or;
          break;
        case BinaryOperatorKind::Xor:
          IOp = Opcode::Xor;
          break;
        default:
          IOp = Opcode::Add;
          break;
        }
        // RHS was converted to the LHS type by Sema.
        New = B.createBinOp(IOp, Old, RHS, "compound");
      }
      B.createStore(New, Addr);
      return New;
    }

    if (BO->isLogicalOp()) {
      // Short-circuit evaluation with a phi join; operands are already
      // boolean-converted by Sema.
      bool IsAnd = Opc == BinaryOperatorKind::LAnd;
      Value *L = emitCondition(BO->getLHS());
      BasicBlock *RhsBB =
          CurFn->createBlock(IsAnd ? "land.rhs" : "lor.rhs");
      BasicBlock *EndBB =
          CurFn->createBlock(IsAnd ? "land.end" : "lor.end");
      BasicBlock *LhsBB = B.getInsertBlock();
      if (IsAnd)
        B.createCondBr(L, RhsBB, EndBB);
      else
        B.createCondBr(L, EndBB, RhsBB);
      B.setInsertPoint(RhsBB);
      Value *R = emitCondition(BO->getRHS());
      BasicBlock *RhsEndBB = B.getInsertBlock();
      B.createBr(EndBB);
      B.setInsertPoint(EndBB);
      Instruction *Phi = B.createPhi(IRType::getI1(), "logical");
      Phi->addIncoming(B.getI1(!IsAnd), LhsBB);
      Phi->addIncoming(R, RhsEndBB);
      return B.createCast(Opcode::ZExt, Phi, IRType::getI8(), "frombool");
    }

    if (Opc == BinaryOperatorKind::Comma) {
      emitExpr(BO->getLHS());
      return emitExpr(BO->getRHS());
    }

    // Pointer arithmetic.
    QualType LTy = BO->getLHS()->getType();
    QualType RTy = BO->getRHS()->getType();
    if (BO->isAdditiveOp() && (LTy->isPointerType() || RTy->isPointerType())) {
      if (LTy->isPointerType() && RTy->isPointerType()) {
        // ptr - ptr -> element distance (long).
        const auto *PT = type_cast<PointerType>(LTy.getTypePtr());
        Value *L = emitExpr(BO->getLHS());
        Value *R = emitExpr(BO->getRHS());
        unsigned ElemSize =
            CGM.convertType(PT->getPointeeType())->getSizeInBytes();
        return B.createPtrDiff(L, R, ElemSize, "ptrdiff");
      }
      const Expr *PtrE = LTy->isPointerType() ? BO->getLHS() : BO->getRHS();
      const Expr *IntE = LTy->isPointerType() ? BO->getRHS() : BO->getLHS();
      Value *Ptr = emitExpr(PtrE);
      Value *Index =
          B.createIntCast(emitExpr(IntE), IRType::getI64(),
                          isSignedAST(IntE->getType()), "idx");
      if (Opc == BinaryOperatorKind::Sub)
        Index = B.createSub(B.getI64(0), Index, "negidx");
      const auto *PT = type_cast<PointerType>(PtrE->getType().getTypePtr());
      return B.createGEP(CGM.convertType(PT->getPointeeType()), Ptr, Index,
                         "add.ptr");
    }

    Value *L = emitExpr(BO->getLHS());
    Value *R = emitExpr(BO->getRHS());

    if (BO->isComparisonOp()) {
      Value *Cmp;
      if (L->getType()->isDouble()) {
        CmpPred P;
        switch (Opc) {
        case BinaryOperatorKind::LT:
          P = CmpPred::OLT;
          break;
        case BinaryOperatorKind::GT:
          P = CmpPred::OGT;
          break;
        case BinaryOperatorKind::LE:
          P = CmpPred::OLE;
          break;
        case BinaryOperatorKind::GE:
          P = CmpPred::OGE;
          break;
        case BinaryOperatorKind::EQ:
          P = CmpPred::OEQ;
          break;
        default:
          P = CmpPred::ONE;
          break;
        }
        Cmp = B.createFCmp(P, L, R, "cmp");
      } else {
        bool Signed = LTy->isPointerType() ? false : isSignedAST(LTy);
        CmpPred P;
        switch (Opc) {
        case BinaryOperatorKind::LT:
          P = Signed ? CmpPred::SLT : CmpPred::ULT;
          break;
        case BinaryOperatorKind::GT:
          P = Signed ? CmpPred::SGT : CmpPred::UGT;
          break;
        case BinaryOperatorKind::LE:
          P = Signed ? CmpPred::SLE : CmpPred::ULE;
          break;
        case BinaryOperatorKind::GE:
          P = Signed ? CmpPred::SGE : CmpPred::UGE;
          break;
        case BinaryOperatorKind::EQ:
          P = CmpPred::EQ;
          break;
        default:
          P = CmpPred::NE;
          break;
        }
        Cmp = B.createICmp(P, L, R, "cmp");
      }
      return B.createCast(Opcode::ZExt, Cmp, IRType::getI8(), "frombool");
    }

    if (L->getType()->isDouble()) {
      Opcode FOp;
      switch (Opc) {
      case BinaryOperatorKind::Add:
        FOp = Opcode::FAdd;
        break;
      case BinaryOperatorKind::Sub:
        FOp = Opcode::FSub;
        break;
      case BinaryOperatorKind::Mul:
        FOp = Opcode::FMul;
        break;
      default:
        FOp = Opcode::FDiv;
        break;
      }
      return B.createBinOp(FOp, L, R, "fbin");
    }

    bool Signed = isSignedAST(BO->getType());
    Opcode IOp;
    switch (Opc) {
    case BinaryOperatorKind::Add:
      IOp = Opcode::Add;
      break;
    case BinaryOperatorKind::Sub:
      IOp = Opcode::Sub;
      break;
    case BinaryOperatorKind::Mul:
      IOp = Opcode::Mul;
      break;
    case BinaryOperatorKind::Div:
      IOp = Signed ? Opcode::SDiv : Opcode::UDiv;
      break;
    case BinaryOperatorKind::Rem:
      IOp = Signed ? Opcode::SRem : Opcode::URem;
      break;
    case BinaryOperatorKind::And:
      IOp = Opcode::And;
      break;
    case BinaryOperatorKind::Or:
      IOp = Opcode::Or;
      break;
    case BinaryOperatorKind::Xor:
      IOp = Opcode::Xor;
      break;
    case BinaryOperatorKind::Shl:
      IOp = Opcode::Shl;
      break;
    case BinaryOperatorKind::Shr:
      IOp = Signed ? Opcode::AShr : Opcode::LShr;
      break;
    default:
      IOp = Opcode::Add;
      break;
    }
    // Shift RHS may have a different width; adapt it.
    if ((IOp == Opcode::Shl || IOp == Opcode::AShr || IOp == Opcode::LShr) &&
        R->getType() != L->getType())
      R = B.createIntCast(R, L->getType(), isSignedAST(RTy), "shamt");
    return B.createBinOp(IOp, L, R, "bin");
  }
  case Stmt::StmtClass::ConditionalOperator: {
    const auto *CO = stmt_cast<ConditionalOperator>(E);
    Value *Cond = emitCondition(CO->getCond());
    BasicBlock *TrueBB = CurFn->createBlock("cond.true");
    BasicBlock *FalseBB = CurFn->createBlock("cond.false");
    BasicBlock *EndBB = CurFn->createBlock("cond.end");
    B.createCondBr(Cond, TrueBB, FalseBB);
    B.setInsertPoint(TrueBB);
    Value *TV = emitExpr(CO->getTrueExpr());
    BasicBlock *TrueEnd = B.getInsertBlock();
    B.createBr(EndBB);
    B.setInsertPoint(FalseBB);
    Value *FV = emitExpr(CO->getFalseExpr());
    BasicBlock *FalseEnd = B.getInsertBlock();
    B.createBr(EndBB);
    B.setInsertPoint(EndBB);
    Instruction *Phi = B.createPhi(TV->getType(), "cond");
    Phi->addIncoming(TV, TrueEnd);
    Phi->addIncoming(FV, FalseEnd);
    return Phi;
  }
  case Stmt::StmtClass::CallExpr: {
    const auto *CE = stmt_cast<CallExpr>(E);
    FunctionDecl *FD = CE->getDirectCallee();
    assert(FD && "indirect calls not supported by this front-end");
    ir::Function *Callee = CGM.getOrCreateFunction(FD);
    std::vector<Value *> Args;
    for (const Expr *A : CE->arguments())
      Args.push_back(emitExpr(A));
    return B.createCall(Callee, std::move(Args));
  }
  case Stmt::StmtClass::ArraySubscriptExpr:
    // Rvalue use without LValueToRValue only for void contexts.
    return B.createLoad(CGM.convertType(E->getType()), emitLValue(E));
  default:
    assert(false && "unhandled expression class in CodeGen");
    return nullptr;
  }
}

} // namespace mcc
