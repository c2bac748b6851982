#include "core/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sdss {
namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " '" + path + "': " + std::strerror(errno);
}

/// The directory part of `path` ("" -> ".").
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return Status::IOError(Errno("fsync", path));
  return Status::OK();
}

}  // namespace

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_), mapped_(other.mapped_) {
  other.addr_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    other.addr_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IOError(Errno("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IOError(Errno("fstat", path));
    ::close(fd);
    return s;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument("not a regular file: " + path);
  }
  MappedFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  file.mapped_ = true;
  if (file.size_ > 0) {
    void* addr =
        ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      Status s = Status::IOError(Errno("mmap", path));
      ::close(fd);
      return s;
    }
    (void)::madvise(addr, file.size_, MADV_SEQUENTIAL);
    file.addr_ = addr;
  }
  ::close(fd);  // The mapping outlives the descriptor.
  return file;
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status CreateDirs(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    partial = path.substr(0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;  // Leading '/'.
    if (::mkdir(partial.c_str(), 0775) != 0 && errno != EEXIST) {
      return Status::IOError(Errno("mkdir", partial));
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("'" + path + "' exists but is not a directory");
  }
  return Status::OK();
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::NotFound("no file '" + path + "'");
    return Status::IOError(Errno("stat", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file '" + path + "'");
    return Status::IOError(Errno("open", path));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::IOError(Errno("read", path));
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status WriteFileDurable(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0664);
  if (fd < 0) return Status::IOError(Errno("open", tmp));
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::IOError(Errno("write", tmp));
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    written += static_cast<size_t>(n);
  }
  Status sync = SyncFd(fd, tmp);
  ::close(fd);
  if (!sync.ok()) {
    ::unlink(tmp.c_str());
    return sync;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status s = Status::IOError(Errno("rename", tmp));
    ::unlink(tmp.c_str());
    return s;
  }
  return SyncDir(DirName(path));
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(Errno("unlink", path));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no directory '" + path + "'");
    }
    return Status::IOError(Errno("opendir", path));
  }
  std::vector<std::string> names;
  while (struct dirent* ent = ::readdir(dir)) {
    std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Status SyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(Errno("open dir", path));
  Status s = SyncFd(fd, path);
  ::close(fd);
  return s;
}

std::string NumberedFiles::Name(uint64_t n) const {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(n));
  std::string name(prefix_);
  name += digits;
  name += suffix_;
  return name;
}

uint64_t NumberedFiles::Parse(std::string_view name) const {
  if (name.size() <= prefix_.size() + suffix_.size()) return 0;
  if (!name.starts_with(prefix_) || !name.ends_with(suffix_)) return 0;
  name.remove_prefix(prefix_.size());
  name.remove_suffix(suffix_.size());
  uint64_t n = 0;
  for (char c : name) {
    if (c < '0' || c > '9') return 0;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (n > (UINT64_MAX - digit) / 10) return 0;  // Overflow.
    n = n * 10 + digit;
  }
  return n;
}

std::vector<std::string> NumberedFiles::List(const std::string& dir) const {
  std::vector<std::pair<uint64_t, std::string>> members;
  auto entries = ListDir(dir);
  if (entries.ok()) {
    for (std::string& name : *entries) {
      const uint64_t n = Parse(name);
      if (n > 0) members.emplace_back(n, std::move(name));
    }
  }
  // ListDir sorts by name, which is numeric order only while every
  // number fits the six-digit width.
  std::sort(members.begin(), members.end());
  std::vector<std::string> names;
  names.reserve(members.size());
  for (auto& [n, name] : members) names.push_back(std::move(name));
  return names;
}

uint64_t NumberedFiles::Next(const std::string& dir) const {
  const std::vector<std::string> names = List(dir);
  return names.empty() ? 1 : Parse(names.back()) + 1;
}

void NumberedFiles::PruneOldest(const std::string& dir, size_t keep) const {
  const std::vector<std::string> names = List(dir);
  for (size_t i = 0; i + keep < names.size(); ++i) {
    (void)RemoveFile(dir + "/" + names[i]);
  }
}

Status ValidatePathComponent(const std::string& name, const char* what) {
  auto reject = [&](const char* why) {
    return Status::InvalidArgument(std::string(what) + " '" + name +
                                   "' is invalid: " + why +
                                   " (1-64 chars, no '/', no '..')");
  };
  if (name.empty()) return reject("empty");
  if (name.size() > 64) return reject("longer than 64 bytes");
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos ||
      name.find('\0') != std::string::npos) {
    return reject("contains a path separator");
  }
  if (name[0] == '.' || name.find("..") != std::string::npos) {
    return reject("starts with '.' or contains '..'");
  }
  return Status::OK();
}

}  // namespace sdss
