//===- tests/common/ScratchDir.h - Self-removing test directory -*- C++ -*-=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scratch directory a test owns: a unique path, empty when the object
/// is made, removed with everything in it when the object dies -- on
/// success, on a failed ASSERT and on a thrown exception alike, so no
/// test run leaves directories behind in the temp root.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_COMMON_SCRATCHDIR_H
#define PBT_TESTS_COMMON_SCRATCHDIR_H

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace pbt {
namespace testdirs {

class ScratchDir {
public:
  /// \p Root + \p Stem + "-<pid>-<n>". The directory itself is not
  /// created: the code under test makes it, as it would in deployment.
  /// \p Root defaults to gtest's temp root; a test that binds Unix
  /// sockets inside passes a short one, since sun_path holds ~107 bytes.
  explicit ScratchDir(const std::string &Stem,
                      const std::string &Root = ::testing::TempDir()) {
    static std::atomic<unsigned> Counter{0};
    Path = Root + Stem + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter.fetch_add(1));
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }

  ~ScratchDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }

  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

} // namespace testdirs
} // namespace pbt

#endif // PBT_TESTS_COMMON_SCRATCHDIR_H
