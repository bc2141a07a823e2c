// The workload engine: every workload's op sequence, written once and issued
// through a call table (see workload.hpp). Every byte read is checked
// against the seeded pattern and every stat size against the bytes written.
#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "workload.hpp"

namespace perfbench {

const Sys kRaw = {
    [](const char* p, int f, mode_t m) {
      return static_cast<int>(::syscall(SYS_openat, AT_FDCWD, p, f, m));
    },
    [](int fd) { return static_cast<int>(::syscall(SYS_close, fd)); },
    [](int fd, void* b, size_t n) {
      return static_cast<ssize_t>(::syscall(SYS_read, fd, b, n));
    },
    [](int fd, const void* b, size_t n) {
      return static_cast<ssize_t>(::syscall(SYS_write, fd, b, n));
    },
    [](int fd, void* b, size_t n, off_t o) {
      return static_cast<ssize_t>(::syscall(SYS_pread64, fd, b, n, o));
    },
    [](int fd, const void* b, size_t n, off_t o) {
      return static_cast<ssize_t>(::syscall(SYS_pwrite64, fd, b, n, o));
    },
    [](const char* p, struct ::stat* st) {
      return static_cast<int>(::syscall(SYS_newfstatat, AT_FDCWD, p, st, 0));
    },
    [](const char* p) {
      return static_cast<int>(::syscall(SYS_unlinkat, AT_FDCWD, p, 0));
    },
};

std::uint64_t quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

void Recorder::merge(const Recorder& o) {
  open_ro.merge(o.open_ro);
  close_ro.merge(o.close_ro);
  open_wr.merge(o.open_wr);
  close_wr.merge(o.close_wr);
  stat.merge(o.stat);
  unlink.merge(o.unlink);
  windows.insert(windows.end(), o.windows.begin(), o.windows.end());
  attempted += o.attempted;
  failed += o.failed;
  mismatches += o.mismatches;
  read_bytes += o.read_bytes;
  write_bytes += o.write_bytes;
}

void Recorder::close_window(Window w) {
  w.r50 = quantile(read.v, 0.5);
  w.r99 = quantile(read.v, 0.99);
  w.w50 = quantile(write.v, 0.5);
  w.w99 = quantile(write.v, 0.99);
  w.f50 = quantile(file.v, 0.5);
  w.f99 = quantile(file.v, 0.99);
  read.v.clear();
  write.v.clear();
  file.v.clear();
  windows.push_back(w);
}

namespace {

/// Where and how one iteration runs: its directory and call table.
struct Target {
  std::string dir;
  const Sys* sys;
  bool ref;
};

std::atomic<int> g_complaints{0};

void complain(const char* what, const std::string& path, int err) {
  if (g_complaints.fetch_add(1) < 20) {
    std::fprintf(stderr, "perfbench: %s %s: %s\n", what, path.c_str(),
                 err != 0 ? std::strerror(err) : "mismatch");
  }
}

/// Times one call into `lat`, counts it, and returns its result. `cost`
/// accumulates the call's latency for per-file sums.
template <typename F>
auto call(Recorder& r, Samples& lat, std::uint64_t* cost, F&& f) {
  const std::uint64_t t0 = now_ns();
  auto res = f();
  const std::uint64_t dt = now_ns() - t0;
  lat.add(dt);
  if (cost != nullptr) *cost += dt;
  ++r.attempted;
  if (res < 0) ++r.failed;
  return res;
}

/// Scratch sink for the pooled kinds of reference iterations.
thread_local Samples t_discard;

/// The pooled sample set of `kind`, or the scratch sink for a reference.
Samples& pooled(Samples& kind, const Target& t) {
  if (!t.ref) return kind;
  t_discard.v.clear();
  return t_discard;
}

void mismatch(Recorder& r, const char* what, const std::string& path) {
  ++r.mismatches;
  complain(what, path, 0);
}

/// stat(path) must answer a regular file of exactly `size` bytes.
void checked_stat(Recorder& r, const Target& t, const std::string& path,
                  std::uint64_t size, std::uint64_t* cost) {
  struct ::stat st{};
  if (call(r, pooled(r.stat, t), cost,
           [&] { return t.sys->stat(path.c_str(), &st); }) != 0) {
    complain("stat", path, errno);
    return;
  }
  if (!S_ISREG(st.st_mode) || static_cast<std::uint64_t>(st.st_size) != size) {
    mismatch(r, "stat size/type", path);
  }
}

/// Closed-loop schedule. Iteration k runs on the measured directory, or,
/// with a reference, every odd k runs on the reference, and a run ends only
/// after a complete pair.
class Loop {
 public:
  explicit Loop(const Options& opt) : opt_(opt) {}

  [[nodiscard]] Target target(std::uint64_t k) const {
    if (!opt_.ref.empty() && k % 2 == 1) return Target{opt_.ref, &kRaw, true};
    return Target{opt_.dir, opt_.sys, false};
  }
  /// Whether iteration `k` should run, given that 0..k-1 are done.
  [[nodiscard]] bool more(std::uint64_t k) const {
    const std::uint64_t step = opt_.ref.empty() ? 1 : 2;
    if (k % step != 0) return true;  // finish the pair
    if (opt_.iterations > 0) return k / step < opt_.iterations;
    if (k == 0) return true;
    return seconds(now_ns() - start_) < opt_.seconds;
  }

 private:
  const Options& opt_;
  std::uint64_t start_ = now_ns();
};

// ---------------------------------------------------------------------------
// tool_stream
// ---------------------------------------------------------------------------

/// Write `bytes` of file `id`'s pattern to `path` with sequential write(2)s
/// of `chunk` bytes, into the current window. Returns the sum of the file's
/// call latencies (open, writes, close).
std::uint64_t write_sequential(Recorder& r, const Options& opt, const Target& t,
                               const std::string& path, std::uint64_t id,
                               std::size_t bytes, std::size_t chunk) {
  const std::uint64_t salt = file_salt(opt.seed, opt.workload, id);
  std::vector<std::byte> buf(chunk);
  std::uint64_t calls_ns = 0;
  const int fd = call(r, pooled(r.open_wr, t), &calls_ns, [&] {
    return t.sys->open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  });
  if (fd < 0) {
    complain("open for write", path, errno);
    return calls_ns;
  }
  for (std::size_t off = 0; off < bytes; off += chunk) {
    const std::size_t len = std::min(chunk, bytes - off);
    fill_pattern(salt, off, buf.data(), len);
    const ssize_t n = call(r, r.write, &calls_ns,
                           [&] { return t.sys->write(fd, buf.data(), len); });
    if (n != static_cast<ssize_t>(len)) {
      if (n >= 0) ++r.failed;
      complain("write", path, errno);
      break;
    }
    if (!t.ref) r.write_bytes += len;
  }
  if (call(r, pooled(r.close_wr, t), &calls_ns, [&] { return t.sys->close(fd); }) != 0) {
    complain("close after write", path, errno);
  }
  return calls_ns;
}

/// One cat-shaped pass: stat, open, 4 KiB read(2) to EOF, close; one window.
void stream_pass(Recorder& r, const Options& opt, const Target& t) {
  const std::string path = stream_name(t.dir);
  const std::uint64_t salt = file_salt(opt.seed, opt.workload, 0);
  std::vector<std::byte> buf(kStreamReadChunk);
  std::uint64_t cost = 0;
  const std::uint64_t t0 = now_ns();
  checked_stat(r, t, path, kStreamFileBytes, &cost);
  const std::uint64_t t_open = now_ns();
  const int fd = call(r, pooled(r.open_ro, t), &cost,
                      [&] { return t.sys->open(path.c_str(), O_RDONLY, 0); });
  if (fd < 0) return complain("open for read", path, errno);
  std::uint64_t off = 0;
  for (;;) {
    const ssize_t n = call(r, r.read, &cost, [&] {
      return t.sys->read(fd, buf.data(), kStreamReadChunk);
    });
    if (n < 0) {
      complain("read", path, errno);
      break;
    }
    if (n == 0) break;
    if (!check_pattern(salt, off, buf.data(), static_cast<std::size_t>(n))) {
      mismatch(r, "read data", path);
    }
    off += static_cast<std::uint64_t>(n);
  }
  if (!t.ref) r.read_bytes += off;
  if (off != kStreamFileBytes) mismatch(r, "read length", path);
  call(r, pooled(r.close_ro, t), &cost, [&] { return t.sys->close(fd); });
  const std::uint64_t t_end = now_ns();
  r.file.add(cost);
  r.close_window(Window{.ref = t.ref,
                        .total_s = seconds(t_end - t0),
                        .read_s = seconds(t_end - t_open),
                        .read_bytes = off,
                        .files = 1});
}

/// A dd-shaped stage-in: a fresh file written with 4 KiB write(2)s, then
/// removed; one window. The passes never write, so these are where
/// tool_stream's write figures come from.
void stage_file(Recorder& r, const Options& opt, const Target& t,
                std::uint64_t file) {
  const std::string path = t.dir + "/stage." + std::to_string(file);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t calls_ns = write_sequential(
      r, opt, t, path, file + 1, kStageFileBytes, kStageWriteChunk);
  r.close_window(Window{.ref = t.ref, .stage = true,
                        .total_s = seconds(now_ns() - t0),
                        .write_s = seconds(calls_ns),
                        .write_bytes = kStageFileBytes, .files = 1});
  if (call(r, pooled(r.unlink, t), nullptr,
           [&] { return t.sys->unlink(path.c_str()); }) != 0) {
    complain("unlink", path, errno);
  }
}

void stream_run(Recorder& r, const Options& opt) {
  Loop loop(opt);
  const std::uint64_t step = opt.ref.empty() ? 1 : 2;
  for (std::uint64_t k = 0; loop.more(k); ++k) {
    const Target t = loop.target(k);
    stream_pass(r, opt, t);
    stage_file(r, opt, t, k / step);
  }
}

// ---------------------------------------------------------------------------
// ckpt_restart
// ---------------------------------------------------------------------------

/// N-1 strided checkpoints and their restarts on `ranks` threads, in ROMIO's
/// collective-open order: rank 0 creates, then every rank opens O_WRONLY.
class Checkpoint {
 public:
  explicit Checkpoint(const Options& opt)
      : opt_(opt), loop_(opt), ranks_(opt.ranks), sync_(opt.ranks),
        rec_(opt.ranks), kept_(opt.ranks) {}

  std::vector<Recorder>& run() {
    std::vector<std::thread> threads;
    for (unsigned r = 1; r < ranks_; ++r) {
      threads.emplace_back([this, r] { rank_loop(r); });
    }
    rank_loop(0);
    for (auto& t : threads) t.join();
    // The kept iteration is untimed; only its failures count.
    for (unsigned r = 0; r < ranks_; ++r) {
      rec_[r].attempted += kept_[r].attempted;
      rec_[r].failed += kept_[r].failed;
      rec_[r].mismatches += kept_[r].mismatches;
    }
    return rec_;
  }

 private:
  void rank_loop(unsigned rank) {
    t_rank = rank;
    std::vector<std::byte> buf(std::max(kCkptRecord, kCkptReadChunk));
    for (std::uint64_t iter = 0;; ++iter) {
      const bool keep_iter = stop_.load();
      Recorder& r = keep_iter ? kept_[rank] : rec_[rank];
      const Target t = loop_.target(keep_iter ? 0 : iter);
      const std::string path = ckpt_name(t.dir, iter);
      const std::uint64_t salt = file_salt(opt_.seed, opt_.workload, iter);
      const std::uint64_t t_iter = now_ns();

      if (rank == 0) {
        write_start_ = now_ns();
        const int fd = call(r, pooled(r.open_wr, t), nullptr, [&] {
          return t.sys->open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
        });
        if (fd < 0) complain("create", path, errno);
        else call(r, pooled(r.close_wr, t), nullptr, [&] { return t.sys->close(fd); });
      }
      sync_.arrive_and_wait();

      int fd = call(r, pooled(r.open_wr, t), nullptr,
                    [&] { return t.sys->open(path.c_str(), O_WRONLY, 0); });
      if (fd < 0) complain("open for write", path, errno);
      const std::size_t records = kCkptFileBytes / kCkptRecord;
      for (std::size_t b = rank; fd >= 0 && b < records; b += ranks_) {
        const off_t off = static_cast<off_t>(b * kCkptRecord);
        fill_pattern(salt, static_cast<std::uint64_t>(off), buf.data(),
                     kCkptRecord);
        const ssize_t n = call(r, r.write, nullptr, [&] {
          return t.sys->pwrite(fd, buf.data(), kCkptRecord, off);
        });
        if (n != static_cast<ssize_t>(kCkptRecord)) {
          if (n >= 0) ++r.failed;
          complain("pwrite", path, errno);
          break;
        }
        if (!t.ref) r.write_bytes += kCkptRecord;
      }
      if (fd >= 0 &&
          call(r, pooled(r.close_wr, t), nullptr, [&] { return t.sys->close(fd); }) != 0) {
        complain("close after write", path, errno);
      }
      sync_.arrive_and_wait();

      if (rank == 0) {
        write_end_ = now_ns();
        checked_stat(r, t, path, kCkptFileBytes, nullptr);
        read_start_ = now_ns();
      }
      sync_.arrive_and_wait();

      const std::size_t share = kCkptFileBytes / ranks_;
      const std::uint64_t begin = rank * share;
      fd = call(r, pooled(r.open_ro, t), nullptr,
                [&] { return t.sys->open(path.c_str(), O_RDONLY, 0); });
      if (fd < 0) complain("open for read", path, errno);
      for (std::uint64_t off = begin; fd >= 0 && off < begin + share;
           off += kCkptReadChunk) {
        const std::size_t len =
            std::min<std::uint64_t>(kCkptReadChunk, begin + share - off);
        const ssize_t n = call(r, r.read, nullptr, [&] {
          return t.sys->pread(fd, buf.data(), len, static_cast<off_t>(off));
        });
        if (n < 0) {
          complain("pread", path, errno);
          break;
        }
        if (static_cast<std::size_t>(n) != len ||
            !check_pattern(salt, off, buf.data(), len)) {
          mismatch(r, "pread data", path);
        }
        if (!t.ref) r.read_bytes += static_cast<std::uint64_t>(n);
      }
      if (fd >= 0) call(r, pooled(r.close_ro, t), nullptr, [&] { return t.sys->close(fd); });
      sync_.arrive_and_wait();

      if (rank == 0) {
        const std::uint64_t read_end = now_ns();
        if (!keep_iter &&
            call(r, pooled(r.unlink, t), nullptr,
                 [&] { return t.sys->unlink(path.c_str()); }) != 0) {
          complain("unlink", path, errno);
        }
        const std::uint64_t end = now_ns();
        // Every rank is parked at the barrier below: fold their samples
        // into this iteration's window.
        for (unsigned k = 1; k < ranks_; ++k) {
          Recorder& o = keep_iter ? kept_[k] : rec_[k];
          r.read.merge(o.read);
          r.write.merge(o.write);
          o.read.v.clear();
          o.write.v.clear();
        }
        r.file.add(end - t_iter);
        r.close_window(Window{.ref = t.ref,
                              .total_s = seconds(end - t_iter),
                              .read_s = seconds(read_end - read_start_),
                              .write_s = seconds(write_end_ - write_start_),
                              .read_bytes = kCkptFileBytes,
                              .write_bytes = kCkptFileBytes,
                              .files = 1});
        if (keep_iter) done_ = true;
        else if (!loop_.more(iter + 1)) {
          if (opt_.keep) stop_ = true;
          else done_ = true;
        }
      }
      sync_.arrive_and_wait();
      if (done_.load()) break;
    }
  }

  const Options& opt_;
  Loop loop_;
  unsigned ranks_;
  std::barrier<> sync_;
  std::vector<Recorder> rec_;
  std::vector<Recorder> kept_;
  std::uint64_t write_start_ = 0;  // written by rank 0 between barriers
  std::uint64_t write_end_ = 0;
  std::uint64_t read_start_ = 0;
  std::atomic<bool> stop_{false};  // next iteration is the kept one
  std::atomic<bool> done_{false};
};

// ---------------------------------------------------------------------------
// meta_storm
// ---------------------------------------------------------------------------

/// Create, write and close files [0, n) of batch `batch`; returns the phase's
/// wall time. Per-file call costs accumulate into `cost`.
std::uint64_t meta_create(Recorder& r, const Options& opt, const Target& t,
                          std::uint64_t batch, std::size_t n,
                          std::vector<std::uint64_t>& cost) {
  std::vector<std::byte> buf(kMetaFileBytes);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string path = meta_name(t.dir, batch, i);
    fill_pattern(file_salt(opt.seed, opt.workload, meta_file_id(batch, i)), 0,
                 buf.data(), kMetaFileBytes);
    const int fd = call(r, pooled(r.open_wr, t), &cost[i], [&] {
      return t.sys->open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    });
    if (fd < 0) {
      complain("create", path, errno);
      continue;
    }
    const ssize_t w = call(r, r.write, &cost[i], [&] {
      return t.sys->write(fd, buf.data(), kMetaFileBytes);
    });
    if (w != static_cast<ssize_t>(kMetaFileBytes)) {
      if (w >= 0) ++r.failed;
      complain("write", path, errno);
    } else if (!t.ref) {
      r.write_bytes += kMetaFileBytes;
    }
    if (call(r, pooled(r.close_wr, t), &cost[i], [&] { return t.sys->close(fd); }) != 0) {
      complain("close after write", path, errno);
    }
  }
  return now_ns() - t0;
}

/// One batch: create+write+close, then stat+open+read+close in a seeded
/// order, then unlink every file; one window.
void meta_batch(Recorder& r, const Options& opt, const Target& t,
                std::uint64_t batch) {
  std::vector<std::byte> buf(kMetaReadBuffer);
  std::vector<std::uint64_t> cost(kMetaBatch, 0);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t create_ns = meta_create(r, opt, t, batch, kMetaBatch, cost);

  const std::uint64_t t_read = now_ns();
  for (const std::size_t i :
       permutation(meta_perm_seed(opt.seed, batch), kMetaBatch)) {
    const std::string path = meta_name(t.dir, batch, i);
    checked_stat(r, t, path, kMetaFileBytes, &cost[i]);
    const int fd = call(r, pooled(r.open_ro, t), &cost[i],
                        [&] { return t.sys->open(path.c_str(), O_RDONLY, 0); });
    if (fd < 0) {
      complain("open for read", path, errno);
      continue;
    }
    const ssize_t n = call(r, r.read, &cost[i], [&] {
      return t.sys->read(fd, buf.data(), kMetaReadBuffer);
    });
    if (n < 0) {
      complain("read", path, errno);
    } else {
      if (!t.ref) r.read_bytes += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) != kMetaFileBytes ||
          !check_pattern(file_salt(opt.seed, opt.workload, meta_file_id(batch, i)),
                         0, buf.data(), kMetaFileBytes)) {
        mismatch(r, "read data", path);
      }
    }
    call(r, pooled(r.close_ro, t), &cost[i], [&] { return t.sys->close(fd); });
  }
  const std::uint64_t read_ns = now_ns() - t_read;

  for (std::size_t i = 0; i < kMetaBatch; ++i) {
    const std::string path = meta_name(t.dir, batch, i);
    if (call(r, pooled(r.unlink, t), &cost[i],
             [&] { return t.sys->unlink(path.c_str()); }) != 0) {
      complain("unlink", path, errno);
    }
  }
  for (const std::uint64_t c : cost) r.file.add(c);
  r.close_window(Window{.ref = t.ref,
                        .total_s = seconds(now_ns() - t0),
                        .read_s = seconds(read_ns),
                        .write_s = seconds(create_ns),
                        .read_bytes = kMetaBatch * kMetaFileBytes,
                        .write_bytes = kMetaBatch * kMetaFileBytes,
                        .files = kMetaBatch});
}

void meta_run(Recorder& r, const Options& opt) {
  Loop loop(opt);
  std::uint64_t k = 0;
  for (; loop.more(k); ++k) meta_batch(r, opt, loop.target(k), k);
  if (opt.keep) {
    std::vector<std::uint64_t> cost(kMetaKeepFiles, 0);
    Recorder untimed;
    meta_create(untimed, opt, loop.target(0), k, kMetaKeepFiles, cost);
    r.attempted += untimed.attempted;
    r.failed += untimed.failed;
  }
}

}  // namespace

void run_setup(Recorder& r, const Options& opt) {
  if (opt.workload != Workload::kToolStream) return;
  const Target t{opt.dir, opt.sys, false};
  const std::uint64_t t0 = now_ns();
  const std::uint64_t calls_ns = write_sequential(
      r, opt, t, stream_name(opt.dir), 0, kStreamFileBytes, kStreamWriteChunk);
  r.close_window(Window{.total_s = seconds(now_ns() - t0),
                        .write_s = seconds(calls_ns),
                        .write_bytes = kStreamFileBytes,
                        .files = 1});
}

void run_timed(Recorder& r, const Options& opt) {
  switch (opt.workload) {
    case Workload::kToolStream: stream_run(r, opt); break;
    case Workload::kMetaStorm: meta_run(r, opt); break;
    case Workload::kCkptRestart: {
      Checkpoint ckpt(opt);
      for (const auto& rec : ckpt.run()) r.merge(rec);
      break;
    }
  }
}

void run_race(Recorder& r, const Options& opt) {
  const Target t{opt.dir, opt.sys, false};
  const unsigned threads = opt.ranks;
  const std::uint64_t trials = opt.iterations > 0 ? opt.iterations : 20;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::string path = opt.dir + "/race." + std::to_string(trial);
    const std::uint64_t salt = file_salt(opt.seed, opt.workload, trial);
    std::vector<Recorder> rec(threads);
    std::barrier<> go(threads);
    std::vector<std::thread> crew;
    for (unsigned k = 0; k < threads; ++k) {
      crew.emplace_back([&, k] {
        std::vector<std::byte> buf(kCkptRecord);
        fill_pattern(salt, k * kCkptRecord, buf.data(), kCkptRecord);
        go.arrive_and_wait();
        const int fd = call(rec[k], rec[k].open_wr, nullptr, [&] {
          return t.sys->open(path.c_str(), O_CREAT | O_WRONLY, 0644);
        });
        if (fd < 0) return complain("race open", path, errno);
        call(rec[k], rec[k].write, nullptr, [&] {
          return t.sys->pwrite(fd, buf.data(), kCkptRecord,
                               static_cast<off_t>(k * kCkptRecord));
        });
        call(rec[k], rec[k].close_wr, nullptr, [&] { return t.sys->close(fd); });
      });
    }
    for (auto& c : crew) c.join();
    for (const auto& x : rec) r.merge(x);
    checked_stat(r, t, path, threads * kCkptRecord, nullptr);
    std::vector<std::byte> buf(threads * kCkptRecord);
    const int fd = t.sys->open(path.c_str(), O_RDONLY, 0);
    const ssize_t n = fd >= 0 ? t.sys->pread(fd, buf.data(), buf.size(), 0) : -1;
    if (fd >= 0) t.sys->close(fd);
    if (n != static_cast<ssize_t>(buf.size()) ||
        !check_pattern(salt, 0, buf.data(), buf.size())) {
      mismatch(r, "race read-back", path);
    }
  }
}

}  // namespace perfbench
