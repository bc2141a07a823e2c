// Workloads shared by the driver and the tracer.
//
// The shapes of the three workloads, the seeded content pattern every byte
// is checked against, the seeded orderings, and (at the end) the one
// implementation of every workload's op sequence. Nothing here knows about
// PLFS: a workload issues its ops through a call table (`Sys`), which the
// driver fills with libc calls (what the shim interposes) or raw system
// calls, and the tracer with each library layer's public functions.
#pragma once

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t KiB = 1024;
inline constexpr std::size_t MiB = 1024 * KiB;

// tool_stream: one container written with cp-shaped 1 MiB writes, then
// cat-shaped passes of 4 KiB read(2) to EOF, each followed by a dd-shaped
// stage-in (dd bs=4k) of a fresh file.
inline constexpr std::size_t kStreamFileBytes = 256 * MiB;
inline constexpr std::size_t kStreamWriteChunk = 1 * MiB;
inline constexpr std::size_t kStreamReadChunk = 4 * KiB;
inline constexpr std::size_t kStageFileBytes = 8 * MiB;
inline constexpr std::size_t kStageWriteChunk = 4 * KiB;

// ckpt_restart: N-1 strided checkpoint of 4 KiB records, restarted with
// contiguous 1 MiB preads per rank.
inline constexpr std::size_t kCkptFileBytes = 64 * MiB;
inline constexpr std::size_t kCkptRecord = 4 * KiB;
inline constexpr std::size_t kCkptReadChunk = 1 * MiB;

// meta_storm: batches of small files taken through their whole lifecycle.
// 512 live files outnumber every container-state cache in the library.
inline constexpr std::size_t kMetaBatch = 512;
inline constexpr std::size_t kMetaFileBytes = 2 * KiB;
inline constexpr std::size_t kMetaReadBuffer = 4 * KiB;
// Files left behind after the timed phase so the backend tree can be walked.
inline constexpr std::size_t kMetaKeepFiles = 64;

enum class Workload { kToolStream, kCkptRestart, kMetaStorm };

inline bool parse_workload(std::string_view name, Workload* out) {
  if (name == "tool_stream") *out = Workload::kToolStream;
  else if (name == "ckpt_restart") *out = Workload::kCkptRestart;
  else if (name == "meta_storm") *out = Workload::kMetaStorm;
  else return false;
  return true;
}

/// Ranks for ckpt_restart: half the cores, at least two. The other cores
/// are left to the library's write-behind pool.
inline unsigned ckpt_ranks(unsigned cores) {
  return std::max(2u, cores / 2);
}

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Salt naming one logical file's content: distinct per seed, workload and
/// file, so a read served from the wrong file or a stale copy mismatches.
inline std::uint64_t file_salt(std::uint64_t seed, Workload w,
                               std::uint64_t file) {
  return splitmix64(splitmix64(seed ^ (static_cast<std::uint64_t>(w) << 56)) ^
                    splitmix64(file + 1));
}

/// The 8-byte word at logical word index `word` of the file salted `salt`.
inline std::uint64_t pattern_word(std::uint64_t salt, std::uint64_t word) {
  std::uint64_t x = (word ^ salt) * 0xD6E8FEB86659FD93ull;
  return x ^ (x >> 32);
}

/// Fill `len` bytes of the pattern starting at logical `offset`.
inline void fill_pattern(std::uint64_t salt, std::uint64_t offset,
                         std::byte* out, std::size_t len) {
  std::size_t i = 0;
  while (i < len) {
    const std::uint64_t pos = offset + i;
    const std::uint64_t w = pattern_word(salt, pos / 8);
    const std::size_t in_word = pos % 8;
    const std::size_t take = std::min<std::size_t>(8 - in_word, len - i);
    std::memcpy(out + i, reinterpret_cast<const std::byte*>(&w) + in_word,
                take);
    i += take;
  }
}

/// True when `len` bytes at `data` equal the pattern at logical `offset`.
inline bool check_pattern(std::uint64_t salt, std::uint64_t offset,
                          const std::byte* data, std::size_t len) {
  if (offset % 8 == 0 && len % 8 == 0) {
    const std::uint64_t first = offset / 8;
    std::uint64_t diff = 0;
    for (std::size_t k = 0; k < len / 8; ++k) {
      std::uint64_t v;
      std::memcpy(&v, data + k * 8, 8);
      diff |= v ^ pattern_word(salt, first + k);
    }
    return diff == 0;
  }
  std::vector<std::byte> want(len);
  fill_pattern(salt, offset, want.data(), len);
  return std::memcmp(want.data(), data, len) == 0;
}

/// Seeded permutation of [0, n) (Fisher-Yates over splitmix64).
inline std::vector<std::size_t> permutation(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = splitmix64(state);
    std::swap(p[i - 1], p[state % i]);
  }
  return p;
}

// File names under the run directory. Each ckpt_restart iteration and each
// meta_storm batch uses fresh names.
inline std::string stream_name(const std::string& dir) {
  return dir + "/stream.dat";
}
inline std::string ckpt_name(const std::string& dir, std::uint64_t iter) {
  return dir + "/ckpt." + std::to_string(iter);
}
inline std::string meta_name(const std::string& dir, std::uint64_t batch,
                             std::size_t i) {
  return dir + "/m" + std::to_string(batch) + "." + std::to_string(i);
}

// Salt ids: the stream file is file 0; checkpoint iteration k is file k;
// meta_storm file i of batch b is b * kMetaBatch + i.
inline std::uint64_t meta_file_id(std::uint64_t batch, std::size_t i) {
  return batch * kMetaBatch + i;
}
/// Seed of the read-order permutation of a meta_storm batch.
inline std::uint64_t meta_perm_seed(std::uint64_t seed, std::uint64_t batch) {
  return splitmix64(seed ^ 0x6D657461ull ^ splitmix64(batch));
}

// ---------------------------------------------------------------------------
// The workload engine (workload.cpp)
// ---------------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The calls a workload makes, with the shapes and errno convention of
/// their POSIX counterparts.
struct Sys {
  int (*open)(const char*, int, mode_t);
  int (*close)(int);
  ssize_t (*read)(int, void*, size_t);
  ssize_t (*write)(int, const void*, size_t);
  ssize_t (*pread)(int, void*, size_t, off_t);
  ssize_t (*pwrite)(int, const void*, size_t, off_t);
  int (*stat)(const char*, struct ::stat*);
  int (*unlink)(const char*);
};

/// Raw system calls, which no LD_PRELOAD shim sees: the reference.
extern const Sys kRaw;

/// Rank of the calling thread within the workload (0 outside ckpt_restart).
inline thread_local unsigned t_rank = 0;

struct Samples {
  std::vector<std::uint64_t> v;
  void add(std::uint64_t x) { v.push_back(x); }
  void merge(const Samples& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
};

/// Nearest-rank quantile; 0 when empty.
std::uint64_t quantile(std::vector<std::uint64_t> v, double q);

/// One closed-loop iteration (a tool_stream pass or stage-in, a checkpoint
/// and its restart, a meta_storm batch, or one set-up): phase times, bytes,
/// and the iteration's own latency percentiles. `ref` marks reference
/// iterations.
struct Window {
  bool ref = false;
  bool stage = false;  // tool_stream's stage-in writes, not a read pass
  double total_s = 0, read_s = 0, write_s = 0;
  std::uint64_t read_bytes = 0, write_bytes = 0, files = 0;
  std::uint64_t r50 = 0, r99 = 0, w50 = 0, w99 = 0, f50 = 0, f99 = 0;
};

/// Per-thread record of one run. `read`, `write` and `file` hold the current
/// window's samples; the other kinds are pooled over the run's measured
/// (non-reference) iterations, opens and closes by handle class (read-only,
/// or created/opened for writing).
struct Recorder {
  Samples read, write, file, open_ro, close_ro, open_wr, close_wr, stat, unlink;
  std::vector<Window> windows;
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::uint64_t read_bytes = 0, write_bytes = 0;

  void merge(const Recorder& o);
  /// Close the current window: take its percentiles, reset its samples.
  void close_window(Window w);
};

struct Options {
  Workload workload = Workload::kToolStream;
  std::string dir;  // where the measured iterations run
  std::string ref;  // with a reference: every other iteration runs here
  std::uint64_t seed = 1;
  double seconds = 0;
  std::uint64_t iterations = 0;
  unsigned ranks = 2;
  bool keep = false;
  const Sys* sys = &kRaw;  // the calls on `dir`; the reference uses kRaw
};

/// Build the workload's input in opt.dir (tool_stream's 256 MiB file; the
/// others have none).
void run_setup(Recorder& r, const Options& opt);
/// The timed closed loop. Stops after opt.iterations measured iterations,
/// or once opt.seconds have passed (always at least one). With opt.ref,
/// iterations alternate between opt.dir and opt.ref and the run ends on a
/// complete pair. With opt.keep, one more untimed iteration leaves its
/// files behind.
void run_timed(Recorder& r, const Options& opt);
/// Known-defect repro: opt.ranks threads open one new file with
/// O_CREAT|O_WRONLY at once, opt.iterations (default 20) times.
void run_race(Recorder& r, const Options& opt);

}  // namespace perfbench
