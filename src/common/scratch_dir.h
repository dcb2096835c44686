// A private scratch directory for files that must not outlive their
// user: mkdtemp under the system temp directory ($TMPDIR, else /tmp),
// removed with everything in it on destruction.
//
// Tests and bench harnesses put their disk-backed storage files here, so
// processes running at the same time (ctest -j runs the env-variant
// twins of a suite side by side) never share a path.

#ifndef SIMCLOUD_COMMON_SCRATCH_DIR_H_
#define SIMCLOUD_COMMON_SCRATCH_DIR_H_

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace simcloud {

class ScratchDir {
 public:
  /// Creates `<temp>/<prefix>.XXXXXX`; aborts when that fails, since no
  /// caller can do anything useful without its files.
  explicit ScratchDir(std::string_view prefix = "simcloud") {
    std::error_code ec;
    std::string pattern =
        (std::filesystem::temp_directory_path(ec) / prefix).string();
    if (ec) pattern = "/tmp/" + std::string(prefix);
    pattern += ".XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::abort();
    }
    path_ = std::move(pattern);
  }

  ~ScratchDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

  /// Path of `name` inside the directory (the file is not created).
  std::string File(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace simcloud

#endif  // SIMCLOUD_COMMON_SCRATCH_DIR_H_
