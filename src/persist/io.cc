#include "persist/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rar {

namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(ErrnoMessage("write", path_));
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(ErrnoMessage("fsync", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Status::Internal(ErrnoMessage("close", path_));
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixReadableFile : public ReadableFile {
 public:
  PosixReadableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixReadableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) override {
    while (true) {
      ssize_t r = ::pread(fd_, buf, n, static_cast<off_t>(offset));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(ErrnoMessage("pread", path_));
      }
      return static_cast<size_t>(r);
    }
  }

  Result<uint64_t> Size() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::Internal(ErrnoMessage("fstat", path_));
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public PersistEnv {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override {
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
    flags |= append ? O_APPEND : O_TRUNC;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return Status::Internal(ErrnoMessage("open", path));
    return {std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path))};
  }

  Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound(ErrnoMessage("open", path));
      return Status::Internal(ErrnoMessage("open", path));
    }
    return {std::unique_ptr<ReadableFile>(new PosixReadableFile(fd, path))};
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return Status::NotFound(ErrnoMessage("opendir", dir));
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name != "." && name != "..") names.push_back(std::move(name));
    }
    ::closedir(d);
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal(ErrnoMessage("mkdir", dir));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal(ErrnoMessage("unlink", path));
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal(ErrnoMessage("rename", from + " -> " + to));
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::Internal(ErrnoMessage("truncate", path));
    }
    return Status::OK();
  }

  Result<bool> FileExists(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) return true;
    if (errno == ENOENT) return false;
    return Status::Internal(ErrnoMessage("stat", path));
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Status::Internal(ErrnoMessage("open dir", dir));
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::Internal(ErrnoMessage("fsync dir", dir));
    return Status::OK();
  }
};

/// Write side of the fault shim: counts bytes ever appended through this
/// env to the matching file and fails (after a partial write) once the
/// budget is exhausted — the surviving prefix is the torn tail.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, FaultPlan plan)
      : base_(std::move(base)), plan_(std::move(plan)) {}

  Status Append(const void* data, size_t n) override {
    if (plan_.fail_appends_after_bytes >= 0) {
      int64_t budget = plan_.fail_appends_after_bytes - written_;
      if (budget <= 0) {
        return Status::Internal("fault injection: write budget exhausted");
      }
      if (static_cast<int64_t>(n) > budget) {
        // Torn write: part of the record reaches the disk, then the
        // "crash" — exactly what a real power cut leaves behind.
        Status s = base_->Append(data, static_cast<size_t>(budget));
        written_ += budget;
        if (!s.ok()) return s;
        return Status::Internal("fault injection: torn write");
      }
    }
    Status s = base_->Append(data, n);
    if (s.ok()) written_ += static_cast<int64_t>(n);
    return s;
  }

  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultPlan plan_;
  int64_t written_ = 0;
};

class FaultReadableFile : public ReadableFile {
 public:
  FaultReadableFile(std::unique_ptr<ReadableFile> base, FaultPlan plan)
      : base_(std::move(base)), plan_(std::move(plan)) {}

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) override {
    RAR_ASSIGN_OR_RETURN(uint64_t size, Size());
    if (offset >= size) return size_t{0};
    if (n > size - offset) n = static_cast<size_t>(size - offset);
    if (plan_.max_read_chunk > 0 && n > plan_.max_read_chunk) {
      n = plan_.max_read_chunk;
    }
    RAR_ASSIGN_OR_RETURN(size_t got, base_->ReadAt(offset, buf, n));
    if (plan_.flip_byte_at >= 0) {
      uint64_t at = static_cast<uint64_t>(plan_.flip_byte_at);
      if (at >= offset && at < offset + got) {
        static_cast<uint8_t*>(buf)[at - offset] ^= plan_.flip_mask;
      }
    }
    return got;
  }

  Result<uint64_t> Size() override {
    RAR_ASSIGN_OR_RETURN(uint64_t size, base_->Size());
    if (plan_.visible_size_cap >= 0 &&
        size > static_cast<uint64_t>(plan_.visible_size_cap)) {
      size = static_cast<uint64_t>(plan_.visible_size_cap);
    }
    return size;
  }

 private:
  std::unique_ptr<ReadableFile> base_;
  FaultPlan plan_;
};

}  // namespace

PersistEnv* GetPosixEnv() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

Status ReadFileFully(PersistEnv* env, const std::string& path,
                     std::string* out) {
  RAR_ASSIGN_OR_RETURN(auto file, env->NewReadableFile(path));
  RAR_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  out->clear();
  out->resize(static_cast<size_t>(size));
  uint64_t off = 0;
  while (off < size) {
    RAR_ASSIGN_OR_RETURN(
        size_t got,
        file->ReadAt(off, &(*out)[static_cast<size_t>(off)],
                     static_cast<size_t>(size - off)));
    if (got == 0) {
      // The file shrank under us (or a size cap is in play): the bytes we
      // have are the bytes there are.
      out->resize(static_cast<size_t>(off));
      break;
    }
    off += got;
  }
  return Status::OK();
}

Status AtomicWriteFile(PersistEnv* env, const std::string& path,
                       const std::string& data) {
  const std::string tmp = path + ".tmp";
  RAR_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(tmp, /*append=*/false));
  RAR_RETURN_NOT_OK(file->Append(data.data(), data.size()));
  RAR_RETURN_NOT_OK(file->Sync());
  RAR_RETURN_NOT_OK(file->Close());
  RAR_RETURN_NOT_OK(env->RenameFile(tmp, path));
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    RAR_RETURN_NOT_OK(env->SyncDir(path.substr(0, slash)));
  }
  return Status::OK();
}

const FaultPlan* FaultInjectingEnv::MatchPlan(const std::string& path) const {
  const std::string base = Basename(path);
  for (const FaultPlan& p : plans_) {
    if (p.path_substring.empty() ||
        base.find(p.path_substring) != std::string::npos) {
      return &p;
    }
  }
  return nullptr;
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path, bool append) {
  RAR_ASSIGN_OR_RETURN(auto base, base_->NewWritableFile(path, append));
  const FaultPlan* plan = MatchPlan(path);
  if (plan == nullptr) return base;
  return {std::unique_ptr<WritableFile>(
      new FaultWritableFile(std::move(base), *plan))};
}

Result<std::unique_ptr<ReadableFile>> FaultInjectingEnv::NewReadableFile(
    const std::string& path) {
  RAR_ASSIGN_OR_RETURN(auto base, base_->NewReadableFile(path));
  const FaultPlan* plan = MatchPlan(path);
  if (plan == nullptr) return base;
  return {std::unique_ptr<ReadableFile>(
      new FaultReadableFile(std::move(base), *plan))};
}

}  // namespace rar
