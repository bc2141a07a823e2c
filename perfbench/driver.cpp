// perfbench_driver — the application side of the benchmark.
//
// A small program that makes only plain libc calls (open, read, pread,
// write, pwrite, close, stat, unlink) on ordinary paths and knows nothing of
// PLFS. Run under LD_PRELOAD=libldplfs.so with LDPLFS_MOUNTS naming its
// directory, it measures what an unmodified application sees. The workloads
// themselves are in workload.cpp; this program issues them through libc.
//
//   perfbench_driver <workload> <phase> --dir D --seed N
//                    [--seconds S | --iterations N] [--threads R]
//                    [--ref DIR] [--raw] [--keep]
//
// workload: tool_stream | ckpt_restart | meta_storm
// phase:    setup  build the workload's input (tool_stream: the 256 MiB
//                  file; the others have none, so it only starts up)
//           run    the timed closed loop
//           race   known-defect repro: R threads open one new file with
//                  O_CREAT|O_WRONLY at once (not part of the benchmark)
// --ref DIR  after every iteration on D, run the same iteration on the plain
//            directory DIR through raw system calls, which no LD_PRELOAD
//            shim sees: a reference taken at the same moment on the same
//            machine (tool_stream needs `setup --raw` in DIR first)
// --raw      issue every call as a raw system call
// --keep     one more, untimed iteration whose files stay behind, so the
//            caller can measure their backend
//
// Every byte read is checked against the seeded pattern and every stat size
// against the bytes written. The result is one JSON object on stdout, with
// one entry per closed-loop iteration ("window"); the exit code is 0 only
// when every op succeeded and every check passed.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workload.hpp"

namespace {

using namespace perfbench;

/// The calls an unmodified application makes, through libc: what an
/// LD_PRELOAD interposer sees.
const Sys kLibc = {
    [](const char* p, int f, mode_t m) { return ::open(p, f, m); },
    [](int fd) { return ::close(fd); },
    [](int fd, void* b, size_t n) { return ::read(fd, b, n); },
    [](int fd, const void* b, size_t n) { return ::write(fd, b, n); },
    [](int fd, void* b, size_t n, off_t o) { return ::pread(fd, b, n, o); },
    [](int fd, const void* b, size_t n, off_t o) { return ::pwrite(fd, b, n, o); },
    [](const char* p, struct ::stat* st) { return ::stat(p, st); },
    [](const char* p) { return ::unlink(p); },
};

struct IoCounters {
  std::uint64_t rchar = 0, wchar = 0, syscr = 0, syscw = 0;
};

IoCounters read_proc_io() {
  IoCounters io;
  const int fd = ::open("/proc/self/io", O_RDONLY);
  if (fd < 0) return io;
  char buf[1024];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return io;
  buf[n] = '\0';
  auto field = [&](const char* key) -> std::uint64_t {
    const char* p = std::strstr(buf, key);
    return p != nullptr ? std::strtoull(p + std::strlen(key), nullptr, 10) : 0;
  };
  io.rchar = field("rchar:");
  io.wchar = field("wchar:");
  io.syscr = field("syscr:");
  io.syscw = field("syscw:");
  return io;
}

void put_samples(std::string& out, const char* name, const Samples& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"%s\": {\"n\": %zu, \"p50_ns\": %" PRIu64
                ", \"p99_ns\": %" PRIu64 "}, ",
                name, s.v.size(), quantile(s.v, 0.5), quantile(s.v, 0.99));
  out += buf;
}

void put_windows(std::string& out, const std::vector<Window>& windows) {
  out += "\"windows\": [";
  char buf[512];
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"ref\": %d, \"stage\": %d, \"total_s\": %.9f, \"read_s\": %.9f, "
                  "\"write_s\": %.9f, \"read_bytes\": %" PRIu64
                  ", \"write_bytes\": %" PRIu64 ", \"files\": %" PRIu64
                  ", \"read_p50_ns\": %" PRIu64 ", \"read_p99_ns\": %" PRIu64
                  ", \"write_p50_ns\": %" PRIu64 ", \"write_p99_ns\": %" PRIu64
                  ", \"file_p50_ns\": %" PRIu64 ", \"file_p99_ns\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", w.ref ? 1 : 0, w.stage ? 1 : 0, w.total_s, w.read_s,
                  w.write_s, w.read_bytes, w.write_bytes, w.files, w.r50, w.r99,
                  w.w50, w.w99, w.f50, w.f99);
    out += buf;
  }
  out += "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver <tool_stream|ckpt_restart|meta_storm> "
               "<setup|run|race> --dir D --seed N [--seconds S | --iterations "
               "N] [--threads R] [--ref DIR] [--raw] [--keep]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  Options opt;
  const std::string workload_name = argv[1];
  const std::string phase = argv[2];
  if (!parse_workload(workload_name, &opt.workload)) return usage();
  unsigned threads = 0;
  bool raw = false;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--dir" && has_value) opt.dir = argv[++i];
    else if (a == "--ref" && has_value) opt.ref = argv[++i];
    else if (a == "--seed" && has_value) opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) opt.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--iterations" && has_value) opt.iterations = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--threads" && has_value) threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    else if (a == "--raw") raw = true;
    else if (a == "--keep") opt.keep = true;
    else return usage();
  }
  if (opt.dir.empty()) return usage();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  opt.ranks = threads > 0 ? threads : ckpt_ranks(cores);
  opt.sys = raw ? &kRaw : &kLibc;

  Recorder total;
  const IoCounters io0 = read_proc_io();
  const std::uint64_t t0 = now_ns();
  if (phase == "setup") run_setup(total, opt);
  else if (phase == "run") run_timed(total, opt);
  else if (phase == "race") run_race(total, opt);
  else return usage();
  const std::uint64_t elapsed = now_ns() - t0;
  const IoCounters io1 = read_proc_io();
  struct ::rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);

  std::string out = "{";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"workload\": \"%s\", \"phase\": \"%s\", \"ranks\": %u, "
                "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"mismatches\": %" PRIu64 ", \"elapsed_s\": %.9f, "
                "\"read_bytes\": %" PRIu64 ", \"write_bytes\": %" PRIu64
                ", \"maxrss_kib\": %ld, ",
                workload_name.c_str(), phase.c_str(), opt.ranks,
                total.attempted, total.failed, total.mismatches,
                seconds(elapsed), total.read_bytes, total.write_bytes,
                ru.ru_maxrss);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"io\": {\"rchar\": %" PRIu64 ", \"wchar\": %" PRIu64
                ", \"syscr\": %" PRIu64 ", \"syscw\": %" PRIu64 "}, ",
                io1.rchar - io0.rchar, io1.wchar - io0.wchar,
                io1.syscr - io0.syscr, io1.syscw - io0.syscw);
  out += buf;
  put_samples(out, "open_ro", total.open_ro);
  put_samples(out, "close_ro", total.close_ro);
  put_samples(out, "open_wr", total.open_wr);
  put_samples(out, "close_wr", total.close_wr);
  put_samples(out, "stat", total.stat);
  put_samples(out, "unlink", total.unlink);
  put_windows(out, total.windows);
  out += "}";
  std::printf("%s\n", out.c_str());
  return (total.failed == 0 && total.mismatches == 0) ? 0 : 1;
}
