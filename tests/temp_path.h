// Temp-file paths for tests that spawn the CLI tools and hand them files.
//
// ctest runs every gtest case as its own process, concurrently under -j,
// so a fixed name under testing::TempDir() is shared by racing cases: one
// case rewrites or deletes another's file before it is read. testTempPath
// keys the name by the running test (or, in SetUpTestSuite, the running
// suite) and the pid, so every process works on its own files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace gpd {

inline std::string testTempPath(const std::string& name) {
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::string key = "gpd";
  if (const ::testing::TestInfo* test = unit.current_test_info()) {
    key += std::string("_") + test->test_suite_name() + "." + test->name();
  } else if (const ::testing::TestSuite* suite = unit.current_test_suite()) {
    key += std::string("_") + suite->name();
  }
  // Parameterized names carry '/', which must not become a directory.
  std::replace(key.begin(), key.end(), '/', '_');
  return ::testing::TempDir() + key + "_" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace gpd
