// Per-process scratch directories for tests that touch the filesystem.
//
// ctest runs every discovered gtest case as a process of its own, and
// `ctest -j` runs them side by side.  A fixed path under the system temp
// directory is then shared by concurrent cases, which remove each other's
// trees.  Every test process here gets its own root, named after the
// running test and the pid, and removes it when the process exits.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace kronlab::testdir {

/// This process's scratch root, created on first use and removed with
/// everything under it at process exit.
inline const std::filesystem::path& temp_root() {
  struct Root {
    std::filesystem::path path;
    Root() {
      std::string name = "kronlab";
      if (const auto* info =
              ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += std::string("_") + info->test_suite_name() + "." +
                info->name();
      }
      std::replace(name.begin(), name.end(), '/', '_');
      path = std::filesystem::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()));
      std::filesystem::remove_all(path);
      std::filesystem::create_directories(path);
    }
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Root root;
  return root.path;
}

/// Path of `name` under this process's root; the file is not created.
inline std::string temp_path(const std::string& name) {
  return (temp_root() / name).string();
}

/// Empty directory `name` under this process's root (emptied if it
/// already exists).
inline std::string fresh_temp_dir(const std::string& name) {
  const auto dir = temp_root() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

} // namespace kronlab::testdir
