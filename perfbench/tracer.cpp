// perfbench_tracer — per-layer replay of a workload's op sequence.
//
// Runs the driver's own workload code (workload.cpp: same seed, shapes,
// order and thread count) in-process, once per layer, through a call table
// that times each call into the layer's public functions from outside:
//
//   core   core::Router (the methods the shim forwards to: fd table, shadow
//          fd, cursor lseeks, then the plfs:: call)
//   plfs   plfs_open / FileHandle::read|write / plfs_close / plfs_getattr /
//          plfs_unlink, plus ReadFile::open (the index snapshot) after each
//          read-only open, behind a small fd → FileHandle table
//   posix  posix::pread_some / posix::pwrite_all on the data droppings, at
//          the physical extents GlobalIndex::lookup gives for the plfs
//          layer's data ops (physically contiguous pieces coalesced) — the
//          floor, replayed just before a file is unlinked, or at the end
//
// Every call is one span {layer, op, op id, thread, start, end}. The op id
// is the calling rank and the call's position in that rank's op sequence,
// so a logical op carries the same id in every layer. Set-up calls are not
// recorded. Spans are kept in memory, written to --spans at exit, and
// summarised into per-layer, per-op medians of the per-op-id totals (the
// benchmark derives self time from these). The workload code checks the
// data every layer returns against the seeded pattern; the floor's reads
// are checked against what the plfs layer returned for the same op.
//
//   perfbench_tracer <workload> --mount DIR --seed N [--spans FILE]
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mounts.hpp"
#include "core/real_calls.hpp"
#include "core/router.hpp"
#include "plfs/index.hpp"
#include "plfs/plfs.hpp"
#include "plfs/read_file.hpp"
#include "posix/fd.hpp"
#include "workload.hpp"

namespace {

using namespace ldplfs;
using namespace perfbench;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum Layer : std::uint8_t { kCore, kPlfs, kPosix, kLayerCount };
const char* const kLayerNames[] = {"core", "plfs", "posix"};

// Opens and closes are split by class (a workload's timed phase may hold
// only some classes); the summary adds "open" and "close" over all classes.
enum Op : std::uint8_t {
  kCreate,     // open with O_CREAT
  kOpenWr,     // open O_WRONLY without O_CREAT
  kOpenRo,     // open O_RDONLY
  kIndexOpen,  // plfs: ReadFile::open
  kCloseWr,    // close of a handle opened for writing
  kCloseRo,    // close of a read-only handle
  kRead,
  kPread,      // also the floor's posix::pread_some
  kWrite,
  kPwrite,     // also the floor's posix::pwrite_all
  kStat,       // core: Router::stat; plfs: plfs_getattr
  kUnlink,
  kOpCount
};
const char* const kOpNames[] = {"create", "open_wr", "open_ro", "index_open",
                                "close_wr", "close_ro", "read", "pread",
                                "write", "pwrite", "stat", "unlink"};
static_assert(std::size(kOpNames) == kOpCount);

Op open_class(int flags) {
  if ((flags & O_CREAT) != 0) return kCreate;
  return (flags & O_ACCMODE) == O_RDONLY ? kOpenRo : kOpenWr;
}

struct Span {
  std::uint64_t id;
  std::uint64_t start;
  std::uint64_t end;
  std::uint16_t thread;
  Layer layer;
  Op op;
};

struct SpanLog {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> shards;
  std::vector<Span>* shard() {
    std::lock_guard lock(mu);
    shards.push_back(std::make_unique<std::vector<Span>>());
    shards.back()->reserve(1 << 16);
    return shards.back().get();
  }
};
SpanLog g_log;
thread_local std::vector<Span>* t_spans = nullptr;

/// Spans are recorded only in the timed phase, not in set-up.
std::atomic<bool> g_recording{false};
/// Position of the calling thread's next call in its rank's op sequence;
/// reset before each layer.
thread_local std::uint64_t t_seq = 0;

/// Id of the calling thread's next logical op, the same in every layer.
std::uint64_t next_id() { return (std::uint64_t{t_rank} << 40) | t_seq++; }

template <typename F>
auto timed(Layer layer, Op op, std::uint64_t id, F&& f) {
  if (!g_recording.load(std::memory_order_relaxed)) return f();
  const std::uint64_t t0 = now_ns();
  auto res = f();
  const std::uint64_t t1 = now_ns();
  if (t_spans == nullptr) t_spans = g_log.shard();
  t_spans->push_back(
      Span{id, t0, t1, static_cast<std::uint16_t>(id >> 40), layer, op});
  return res;
}

// Failures outside the workload code (the floor and its loads).
std::atomic<std::uint64_t> g_attempted{0}, g_failed{0}, g_mismatches{0};

void count(bool ok, const char* what, const std::string& path) {
  g_attempted.fetch_add(1, std::memory_order_relaxed);
  if (!ok && g_failed.fetch_add(1, std::memory_order_relaxed) < 10) {
    std::fprintf(stderr, "perfbench_tracer: %s %s failed\n", what, path.c_str());
  }
}

void mismatch(const char* what, const std::string& path) {
  if (g_mismatches.fetch_add(1, std::memory_order_relaxed) < 10) {
    std::fprintf(stderr, "perfbench_tracer: %s mismatch on %s\n", what,
                 path.c_str());
  }
}

template <typename T>
T fail(int err) {
  errno = err;
  return static_cast<T>(-1);
}

// ---------------------------------------------------------------------------
// core layer: core::Router
// ---------------------------------------------------------------------------

core::Router* g_router = nullptr;
/// Whether each router fd was opened for writing (for the close class).
std::array<std::atomic<bool>, 1 << 16> g_core_writable{};

Op core_close_class(int fd) {
  const bool wr = fd >= 0 && static_cast<std::size_t>(fd) < g_core_writable.size() &&
                  g_core_writable[static_cast<std::size_t>(fd)].load();
  return wr ? kCloseWr : kCloseRo;
}

const Sys kCoreSys = {
    [](const char* p, int f, mode_t m) {
      const int fd = timed(kCore, open_class(f), next_id(),
                           [&] { return g_router->open(p, f, m); });
      if (fd >= 0 && static_cast<std::size_t>(fd) < g_core_writable.size()) {
        g_core_writable[static_cast<std::size_t>(fd)] = open_class(f) != kOpenRo;
      }
      return fd;
    },
    [](int fd) {
      return timed(kCore, core_close_class(fd), next_id(),
                   [&] { return g_router->close(fd); });
    },
    [](int fd, void* b, size_t n) {
      return timed(kCore, kRead, next_id(), [&] { return g_router->read(fd, b, n); });
    },
    [](int fd, const void* b, size_t n) {
      return timed(kCore, kWrite, next_id(), [&] { return g_router->write(fd, b, n); });
    },
    [](int fd, void* b, size_t n, off_t o) {
      return timed(kCore, kPread, next_id(),
                   [&] { return g_router->pread(fd, b, n, o); });
    },
    [](int fd, const void* b, size_t n, off_t o) {
      return timed(kCore, kPwrite, next_id(),
                   [&] { return g_router->pwrite(fd, b, n, o); });
    },
    [](const char* p, struct ::stat* st) {
      return timed(kCore, kStat, next_id(), [&] { return g_router->stat(p, st); });
    },
    [](const char* p) {
      return timed(kCore, kUnlink, next_id(), [&] { return g_router->unlink(p); });
    },
};

// ---------------------------------------------------------------------------
// plfs layer: the plfs:: API behind an fd → FileHandle table
// ---------------------------------------------------------------------------

struct PlfsFile {
  std::shared_ptr<plfs::FileHandle> fh;
  std::string path;
  std::uint64_t cursor = 0;  // read(2)/write(2) position; one thread per fd
  bool writable = false;
};

std::mutex g_files_mu;
std::map<int, std::shared_ptr<PlfsFile>> g_files;
int g_next_fd = 3;

std::shared_ptr<PlfsFile> plfs_file(int fd) {
  std::lock_guard lock(g_files_mu);
  const auto it = g_files.find(fd);
  return it == g_files.end() ? nullptr : it->second;
}

std::uint64_t digest(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ull ^ len;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = splitmix64(h ^ w);
  }
  for (; i < len; ++i) h = splitmix64(h ^ p[i]);
  return h;
}

/// One data op of the plfs layer, replayed by the floor. A read keeps the
/// digest of the bytes the plfs layer returned.
struct DataOp {
  std::uint64_t id;
  std::uint64_t offset;
  std::size_t length;
  bool write;
  std::uint64_t digest;
};

std::mutex g_ops_mu;
std::map<std::string, std::vector<DataOp>> g_ops;  // by container path

void log_op(const std::string& path, const DataOp& op) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(g_ops_mu);
  g_ops[path].push_back(op);
}

const pid_t g_pid = ::getpid();

ssize_t plfs_read_at(PlfsFile& f, void* b, size_t n, std::uint64_t off, Op op) {
  const std::uint64_t id = next_id();
  auto r = timed(kPlfs, op, id, [&] {
    return f.fh->read(std::span<std::byte>(static_cast<std::byte*>(b), n), off);
  });
  if (!r) return fail<ssize_t>(r.error_code());
  log_op(f.path, DataOp{id, off, r.value(), false, digest(b, r.value())});
  return static_cast<ssize_t>(r.value());
}

ssize_t plfs_write_at(PlfsFile& f, const void* b, size_t n, std::uint64_t off,
                      Op op) {
  const std::uint64_t id = next_id();
  auto r = timed(kPlfs, op, id, [&] {
    return f.fh->write(
        std::span<const std::byte>(static_cast<const std::byte*>(b), n), off,
        g_pid);
  });
  if (!r) return fail<ssize_t>(r.error_code());
  log_op(f.path, DataOp{id, off, r.value(), true, 0});
  return static_cast<ssize_t>(r.value());
}

void floor_replay(const std::string& path);

const Sys kPlfsSys = {
    [](const char* p, int f, mode_t m) {
      const std::uint64_t id = next_id();
      const Op op = open_class(f);
      auto h = timed(kPlfs, op, id, [&] { return plfs::plfs_open(p, f, g_pid, m); });
      if (!h) return fail<int>(h.error_code());
      if (op == kOpenRo) {
        auto snap = timed(kPlfs, kIndexOpen, id, [&] { return plfs::ReadFile::open(p); });
        if (!snap) return fail<int>(snap.error_code());
      }
      auto file = std::make_shared<PlfsFile>(
          PlfsFile{std::move(h).value(), p, 0, op != kOpenRo});
      std::lock_guard lock(g_files_mu);
      g_files.emplace(g_next_fd, std::move(file));
      return g_next_fd++;
    },
    [](int fd) {
      const std::uint64_t id = next_id();
      std::shared_ptr<PlfsFile> f;
      {
        std::lock_guard lock(g_files_mu);
        const auto it = g_files.find(fd);
        if (it == g_files.end()) return fail<int>(EBADF);
        f = std::move(it->second);
        g_files.erase(it);
      }
      const Status s = timed(kPlfs, f->writable ? kCloseWr : kCloseRo, id,
                             [&] { return plfs::plfs_close(f->fh, g_pid); });
      return s ? 0 : fail<int>(s.error_code());
    },
    [](int fd, void* b, size_t n) {
      const auto f = plfs_file(fd);
      if (!f) return fail<ssize_t>(EBADF);
      const ssize_t got = plfs_read_at(*f, b, n, f->cursor, kRead);
      if (got > 0) f->cursor += static_cast<std::uint64_t>(got);
      return got;
    },
    [](int fd, const void* b, size_t n) {
      const auto f = plfs_file(fd);
      if (!f) return fail<ssize_t>(EBADF);
      const ssize_t put = plfs_write_at(*f, b, n, f->cursor, kWrite);
      if (put > 0) f->cursor += static_cast<std::uint64_t>(put);
      return put;
    },
    [](int fd, void* b, size_t n, off_t o) {
      const auto f = plfs_file(fd);
      if (!f) return fail<ssize_t>(EBADF);
      return plfs_read_at(*f, b, n, static_cast<std::uint64_t>(o), kPread);
    },
    [](int fd, const void* b, size_t n, off_t o) {
      const auto f = plfs_file(fd);
      if (!f) return fail<ssize_t>(EBADF);
      return plfs_write_at(*f, b, n, static_cast<std::uint64_t>(o), kPwrite);
    },
    [](const char* p, struct ::stat* st) {
      auto attr = timed(kPlfs, kStat, next_id(), [&] { return plfs::plfs_getattr(p); });
      if (!attr) return fail<int>(attr.error_code());
      *st = {};
      st->st_mode = S_IFREG | attr.value().mode;
      st->st_size = static_cast<off_t>(attr.value().size);
      return 0;
    },
    [](const char* p) {
      const std::uint64_t id = next_id();
      floor_replay(p);  // while the container still exists
      const Status s = timed(kPlfs, kUnlink, id, [&] { return plfs::plfs_unlink(p); });
      return s ? 0 : fail<int>(s.error_code());
    },
};

// ---------------------------------------------------------------------------
// posix floor: the posix:: helpers at the physical extents of the plfs ops.
// ---------------------------------------------------------------------------

/// A physically contiguous run in one data dropping and the logical pieces
/// it holds.
struct Run {
  std::uint32_t dropping = 0;
  std::uint64_t physical = 0;
  std::uint64_t length = 0;
  std::vector<plfs::MappedPiece> pieces;
};

std::vector<Run> physical_runs(const plfs::GlobalIndex& index,
                               std::uint64_t off, std::size_t len) {
  std::vector<plfs::MappedPiece> pieces = index.lookup(off, len);
  std::stable_sort(pieces.begin(), pieces.end(), [](const auto& a, const auto& b) {
    return a.dropping != b.dropping ? a.dropping < b.dropping
                                    : a.physical < b.physical;
  });
  std::vector<Run> runs;
  for (const auto& p : pieces) {
    if (p.hole) continue;
    if (!runs.empty() && runs.back().dropping == p.dropping &&
        runs.back().physical + runs.back().length == p.physical) {
      runs.back().length += p.length;
    } else {
      runs.push_back(Run{p.dropping, p.physical, p.length, {}});
    }
    runs.back().pieces.push_back(p);
  }
  return runs;
}

/// Replay the recorded data ops of the container at `path` with the posix::
/// helpers on its data droppings. A write rewrites the bytes already at its
/// extents (read back untimed first, so the content stays the same); a read
/// is checked against what the plfs layer returned for the same op.
void floor_replay(const std::string& path) {
  std::vector<DataOp> ops;
  {
    std::lock_guard lock(g_ops_mu);
    const auto it = g_ops.find(path);
    if (it == g_ops.end()) return;
    ops = std::move(it->second);
    g_ops.erase(it);
  }
  auto index = plfs::GlobalIndex::build(path);
  count(index.ok(), "floor index", path);
  if (!index) return;
  std::vector<posix::UniqueFd> fds;
  for (const auto& rel : index.value().data_paths()) {
    auto fd = posix::open_fd(path + "/" + rel, O_RDWR);
    count(fd.ok(), "floor open", path);
    if (!fd) return;
    fds.push_back(std::move(fd).value());
  }
  std::vector<std::byte> buf, logical;
  for (const DataOp& op : ops) {
    logical.assign(op.write ? 0 : op.length, std::byte{0});
    for (const Run& run : physical_runs(index.value(), op.offset, op.length)) {
      buf.resize(run.length);
      const std::span<std::byte> extent(buf.data(), run.length);
      const int fd = fds[run.dropping].get();
      const auto at = static_cast<off_t>(run.physical);
      if (op.write) {
        count(posix::pread_all(fd, extent, at).ok(), "floor pre-read", path);
        const Status s = timed(kPosix, kPwrite, op.id,
                               [&] { return posix::pwrite_all(fd, extent, at); });
        count(s.ok(), "posix::pwrite_all", path);
        continue;
      }
      auto n = timed(kPosix, kPread, op.id, [&] { return posix::pread_some(fd, extent, at); });
      count(n.ok(), "posix::pread_some", path);
      if (!n.ok() || n.value() != run.length) {
        mismatch("posix read length", path);
        continue;
      }
      for (const auto& p : run.pieces) {
        std::memcpy(logical.data() + (p.logical - op.offset),
                    buf.data() + (p.physical - run.physical), p.length);
      }
    }
    if (!op.write && digest(logical.data(), logical.size()) != op.digest) {
      mismatch("posix read data", path);
    }
  }
}

/// Replay the floor of every container not unlinked by the workload.
void floor_replay_rest() {
  std::vector<std::string> paths;
  {
    std::lock_guard lock(g_ops_mu);
    for (const auto& [path, ops] : g_ops) paths.push_back(path);
  }
  for (const auto& path : paths) floor_replay(path);
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Timed iterations per layer: tool_stream passes, ckpt_restart iterations,
/// meta_storm batches.
constexpr std::uint64_t kRounds = 3;

/// Run the workload's set-up (unrecorded) and kRounds timed iterations
/// through `sys` in `dir`, on a fresh op sequence.
void replay(Recorder& total, Options opt, const Sys& sys, const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    count(false, "mkdir", dir);
    return;
  }
  opt.dir = dir;
  opt.sys = &sys;
  t_rank = 0;
  t_seq = 0;
  run_setup(total, opt);
  g_recording = true;
  run_timed(total, opt);
  g_recording = false;
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

struct Summary {
  std::size_t n = 0;
  std::uint64_t p50 = 0, p99 = 0;
};

Summary summarize(std::vector<std::uint64_t> v) {
  Summary s;
  s.n = v.size();
  s.p50 = quantile(v, 0.5);
  s.p99 = quantile(std::move(v), 0.99);
  return s;
}

/// Per (layer, op): per-op-id total durations. A logical op that needs
/// several calls in one layer (a strided read touching several droppings)
/// counts once, with the sum of its calls.
std::string summary_json(const std::vector<Span>& spans) {
  std::map<std::pair<int, std::string>, std::map<std::uint64_t, std::uint64_t>> per;
  for (const Span& s : spans) {
    per[{s.layer, kOpNames[s.op]}][s.id] += s.end - s.start;
    if (s.op == kCreate || s.op == kOpenWr || s.op == kOpenRo) {
      per[{s.layer, "open"}][s.id] += s.end - s.start;
    } else if (s.op == kCloseWr || s.op == kCloseRo) {
      per[{s.layer, "close"}][s.id] += s.end - s.start;
    }
  }
  std::string out = "{";
  for (int layer = 0; layer < kLayerCount; ++layer) {
    if (layer > 0) out += ", ";
    out += "\"";
    out += kLayerNames[layer];
    out += "\": {";
    bool first = true;
    for (const auto& [key, ids] : per) {
      if (key.first != layer) continue;
      std::vector<std::uint64_t> v;
      v.reserve(ids.size());
      for (const auto& [id, ns] : ids) v.push_back(ns);
      const Summary s = summarize(std::move(v));
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"n\": %zu, \"p50_ns\": %" PRIu64
                    ", \"p99_ns\": %" PRIu64 "}",
                    first ? "" : ", ", key.second.c_str(), s.n, s.p50, s.p99);
      out += buf;
      first = false;
    }
    out += "}";
  }
  out += "}";
  return out;
}

bool write_spans(const std::string& file, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer,op,id,thread,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%s,%" PRIu64 ",%u,%" PRIu64 ",%" PRIu64 "\n",
                 kLayerNames[s.layer], kOpNames[s.op], s.id,
                 static_cast<unsigned>(s.thread), s.start, s.end);
  }
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_tracer <tool_stream|ckpt_restart|meta_storm> "
               "--mount DIR --seed N [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opt;
  if (!parse_workload(argv[1], &opt.workload)) return usage();
  opt.ranks = ckpt_ranks(std::max(1u, std::thread::hardware_concurrency()));
  opt.iterations = kRounds;
  std::string mount, spans_file;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--mount" && has_value) mount = argv[++i];
    else if (a == "--seed" && has_value) opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--spans" && has_value) spans_file = argv[++i];
    else return usage();
  }
  if (mount.empty()) return usage();

  Recorder total;
  const std::uint64_t t0 = now_ns();
  {
    core::MountTable mounts;
    mounts.add(mount);
    core::Router router(core::libc_calls(), mounts);
    g_router = &router;
    replay(total, opt, kCoreSys, mount + "/core");
    g_router = nullptr;
  }
  replay(total, opt, kPlfsSys, mount + "/plfs");
  g_recording = true;
  floor_replay_rest();
  g_recording = false;
  const double elapsed = seconds(now_ns() - t0);

  std::vector<Span> spans;
  {
    std::lock_guard lock(g_log.mu);
    for (const auto& shard : g_log.shards) {
      spans.insert(spans.end(), shard->begin(), shard->end());
    }
  }
  if (!spans_file.empty() && !write_spans(spans_file, spans)) {
    std::fprintf(stderr, "perfbench_tracer: cannot write %s\n", spans_file.c_str());
    return 1;
  }
  const std::uint64_t attempted = total.attempted + g_attempted.load();
  const std::uint64_t failed = total.failed + g_failed.load();
  const std::uint64_t mismatches = total.mismatches + g_mismatches.load();
  std::printf("{\"workload\": \"%s\", \"ranks\": %u, \"spans\": %zu, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"mismatches\": %" PRIu64 ", \"elapsed_s\": %.9f, "
              "\"layers\": %s}\n",
              argv[1], opt.ranks, spans.size(), attempted, failed, mismatches,
              elapsed, summary_json(spans).c_str());
  return (failed == 0 && mismatches == 0) ? 0 : 1;
}
