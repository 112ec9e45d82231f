//===--- exhibit_golden_test.cpp - Golden files for the paper's exhibits ---===//
//
// The exhibit_ast_dumps tool reproduces the paper's listings (Fig. 3 /
// lst:astdump, the shadow-AST stack of Listing 6, the transformed tile
// and unroll subtrees). These dumps are documentation-grade output — a
// formatting or structural drift would silently invalidate the paper
// reproduction — so each exhibit is pinned against a golden file under
// tests/golden/.
//
// To regenerate after an intentional AST/dump change:
//   MCC_REGEN_GOLDEN=1 ./exhibit_golden_test
// then review the diff like any other source change.
//
//===----------------------------------------------------------------------===//
#include "GoldenTestHelper.h"
#include "ast/RecursiveASTVisitor.h"
#include "driver/CompilerInstance.h"

#include <gtest/gtest.h>

#include <string>

using namespace mcc;
using test::compareWithGolden;

namespace {

template <typename T> T *findNode(TranslationUnitDecl *TU) {
  struct Finder : RecursiveASTVisitor<Finder> {
    T *Found = nullptr;
    bool visitStmt(Stmt *S) {
      if (auto *Node = stmt_dyn_cast<T>(S)) {
        Found = Node;
        return false;
      }
      return true;
    }
  } F;
  for (Decl *D : TU->decls())
    if (!F.traverseDecl(D))
      break;
  return F.Found;
}

/// Parses \p Source and dumps the first node of type T (optionally its
/// transformed shadow statement instead).
template <typename T>
std::string dumpExhibit(const char *Source, bool Transformed = false,
                        bool IRBuilderMode = false) {
  CompilerOptions Options;
  Options.LangOpts.OpenMPEnableIRBuilder = IRBuilderMode;
  CompilerInstance CI(Options);
  CI.addVirtualFile("x.c", Source);
  if (!CI.parseToAST("x.c")) {
    ADD_FAILURE() << CI.renderDiagnostics();
    return {};
  }
  T *Node = findNode<T>(CI.getTranslationUnit());
  if (!Node) {
    ADD_FAILURE() << "exhibit node not found";
    return {};
  }
  if (Transformed) {
    if constexpr (requires { Node->getTransformedStmt(); }) {
      Stmt *TS = Node->getTransformedStmt();
      if (!TS) {
        ADD_FAILURE() << "no transformed statement";
        return {};
      }
      return dumpToString(TS);
    } else {
      ADD_FAILURE() << "directive has no shadow transform";
      return {};
    }
  }
  return dumpToString(Node);
}

// Paper Listing 3 / Fig. 3: parallel for schedule(static) including the
// CapturedStmt machinery.
TEST(ExhibitGolden, AstDumpParallelForStatic) {
  const char *Source = R"(
void body(int i);
void f() {
  #pragma omp parallel for schedule(static)
  for (int i = 7; i < 17; i += 3)
    body(i);
}
)";
  compareWithGolden(
      "astdump_parallel_for",
      dumpExhibit<OMPParallelForDirective>(Source));
}

// Paper Listing 6: the shadow-AST stack of unroll full over
// unroll partial(2).
TEST(ExhibitGolden, ShadowAstUnrollStack) {
  const char *Source = R"(
void body(int i);
void f() {
  #pragma omp unroll full
  #pragma omp unroll partial(2)
  for (int i = 7; i < 17; i += 3)
    body(i);
}
)";
  compareWithGolden("shadow_unroll_stack",
                    dumpExhibit<OMPUnrollDirective>(Source));
}

// Paper Listing 8 (Fig. 8): the transformed shadow AST of a partial
// unroll — strip-mined loop plus LoopHintAttr.
TEST(ExhibitGolden, ShadowAstUnrollTransformed) {
  const char *Source = R"(
void body(int i);
void f() {
  #pragma omp unroll partial(2)
  for (int i = 7; i < 17; i += 3)
    body(i);
}
)";
  compareWithGolden(
      "shadow_unroll_transformed",
      dumpExhibit<OMPUnrollDirective>(Source, /*Transformed=*/true));
}

// The reverse directive's shadow AST: the generated loop runs the same
// logical iterations backwards. The body is call-free array arithmetic
// so the dependence legality oracle admits the transformation.
TEST(ExhibitGolden, ShadowAstReverseTransformed) {
  const char *Source = R"(
void f() {
  int a[32];
  #pragma omp reverse
  for (int i = 0; i < 32; i += 1)
    a[i] = a[i] + i;
}
)";
  compareWithGolden(
      "shadow_reverse_transformed",
      dumpExhibit<OMPReverseDirective>(Source, /*Transformed=*/true));
}

// The interchange counterpart: permutation(2, 1) swaps a dependence-free
// 2-D nest with an injective subscript.
TEST(ExhibitGolden, ShadowAstInterchangeTransformed) {
  const char *Source = R"(
void f() {
  int a[512];
  #pragma omp interchange permutation(2, 1)
  for (int i = 0; i < 16; i += 1)
    for (int j = 0; j < 32; j += 1)
      a[i * 32 + j] = a[i * 32 + j] * 2;
}
)";
  compareWithGolden(
      "shadow_interchange_transformed",
      dumpExhibit<OMPInterchangeDirective>(Source, /*Transformed=*/true));
}

// The tile counterpart: the shadow AST a tile directive constructs
// (floor + tile loop nest) for a 2-D sizes clause.
TEST(ExhibitGolden, ShadowAstTileTransformed) {
  const char *Source = R"(
void body(int i, int j);
void f() {
  #pragma omp tile sizes(4, 8)
  for (int i = 0; i < 32; i += 1)
    for (int j = 0; j < 16; j += 1)
      body(i, j);
}
)";
  compareWithGolden(
      "shadow_tile_transformed",
      dumpExhibit<OMPTileDirective>(Source, /*Transformed=*/true));
}

// The fuse directive's shadow AST: two adjacent sibling loops rewritten
// into one loop whose body runs both members per shared iteration, the
// shorter member guarded by its own trip count.
TEST(ExhibitGolden, ShadowAstFuseTransformed) {
  const char *Source = R"(
void f() {
  int a[64];
  int b[64];
  #pragma omp fuse
  {
    for (int i = 0; i < 64; i += 1)
      a[i] = 2 * i;
    for (int k = 0; k < 16; k += 1)
      b[k] = a[k] + 1;
  }
}
)";
  compareWithGolden(
      "shadow_fuse_transformed",
      dumpExhibit<OMPFuseDirective>(Source, /*Transformed=*/true));
}

// The distribute_loop counterpart: one loop split into per-statement-
// group loops (legal here — the inter-group dependence is forward).
TEST(ExhibitGolden, ShadowAstDistributeTransformed) {
  const char *Source = R"(
void f() {
  int a[64];
  int b[64];
  #pragma omp distribute_loop
  for (int i = 0; i < 64; i += 1) {
    a[i] = 2 * i;
    b[i] = a[i] + 1;
  }
}
)";
  compareWithGolden(
      "shadow_distribute_transformed",
      dumpExhibit<OMPDistributeLoopDirective>(Source, /*Transformed=*/true));
}

// Composition in the style of the paper's stacked-directive discussion:
// the first fuse member is itself a tile directive, so the fuse shadow is
// built over the tile's post-transform loop.
TEST(ExhibitGolden, ShadowAstFuseAfterTileTransformed) {
  const char *Source = R"(
void f() {
  int a[64];
  int b[64];
  #pragma omp fuse
  {
    #pragma omp tile sizes(4)
    for (int i = 0; i < 64; i += 1)
      a[i] = i;
    for (int k = 0; k < 16; k += 1)
      b[k] = k;
  }
}
)";
  compareWithGolden(
      "shadow_fuse_after_tile",
      dumpExhibit<OMPFuseDirective>(Source, /*Transformed=*/true));
}

} // namespace
