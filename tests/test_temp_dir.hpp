// Per-process scratch space for tests that write files.
//
// Every path a test builds lives under <system temp>/ca_agcm_test.<pid>/, so
// two test runs on one machine (say a sanitizer build beside the main one)
// never share a checkpoint set, a delta chain or a flight dump.  The
// directory is created on first use and removed when the process exits.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ca::test_support {

/// This process's scratch root.
inline const std::filesystem::path& temp_root() {
  struct Root {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("ca_agcm_test." + std::to_string(::getpid()));
    Root() { std::filesystem::create_directories(path); }
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Root root;
  return root.path;
}

/// `name` under the scratch root; creates nothing.
inline std::string temp_path(const std::string& name) {
  return (temp_root() / name).string();
}

/// A fresh, empty directory `tag` under the scratch root.
inline std::string temp_dir(const std::string& tag) {
  const auto dir = temp_root() / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace ca::test_support
