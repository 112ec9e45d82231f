//===--- GoldenTestHelper.h - Compare output with a golden file -*- C++ -*-===//
//
// compareWithGolden checks a test's output against tests/golden/<name>.golden
// (MCC_GOLDEN_DIR, set by tests/CMakeLists.txt). To regenerate after an
// intentional change, run the test binary with MCC_REGEN_GOLDEN=1, then
// review the diff like any other source change.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_TESTS_GOLDENTESTHELPER_H
#define MCC_TESTS_GOLDENTESTHELPER_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace mcc::test {

inline void compareWithGolden(const std::string &Name,
                              const std::string &Actual) {
  const std::string Path = std::string(MCC_GOLDEN_DIR) + "/" + Name + ".golden";
  if (std::getenv("MCC_REGEN_GOLDEN")) {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with MCC_REGEN_GOLDEN=1 to create)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "'" << Name << "' drifted from " << Path
      << "\nIf the change is intentional, regenerate with "
         "MCC_REGEN_GOLDEN=1 and review the diff.";
}

} // namespace mcc::test

#endif // MCC_TESTS_GOLDENTESTHELPER_H
