#ifndef M2M_PERFBENCH_UTIL_H_
#define M2M_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end);

/// Wire values are 32-bit floats, so runtime results are compared to the
/// direct evaluation with the same 1e-4 relative slack the runtime tests use.
bool ValueMatches(double got, double want);

/// Peak resident set size of this process, in MiB, less the reference's
/// array (see UseReference).
double PeakRssMb();

/// Moves the calling thread to the next CPU of the process's starting
/// affinity set, round-robin. Timed operations call it first so their
/// samples spread evenly over all CPUs: on a shared host each virtual CPU
/// alternates between full and ~1.5x slower speed every few seconds, and a
/// run pinned to one of them by scheduler stickiness inherits its phase.
void RotateCpu();
/// Restores the starting affinity set (before spawning worker threads,
/// which inherit it).
void RestoreCpus();

/// Host times are reported at a nominal host speed. A shared host's speed
/// drifts by up to 2x over minutes, so each timed operation is preceded,
/// on the same CPU, by a timing of a fixed reference work, and reported as
/// its time times the reference's nominal time over the reference's time
/// just before it. The reference is plain code of util.cc, so no change to
/// the program can change its time.
enum class ReferenceKind {
  /// Sorting and hashing 16k keys (~2 ms, 512 KiB): for workloads whose
  /// state fits in a core's cache.
  kCacheResident,
  /// The same plus 16k dependent loads over a 16 MiB array (~4 ms): for
  /// workloads whose state does not, and which slow more than cache-bound
  /// work when the host's memory is contended.
  kWithMemory,
};
/// Selects the reference; a workload calls it first, before it builds
/// anything (kWithMemory allocates its array here).
void UseReference(ReferenceKind kind);
/// Size of the reference's resident array, in MiB (0 for kCacheResident).
double ReferenceResidentMb();
/// One timing of the reference, in ms.
double TimeReference();
/// Called right before each timed operation: RotateCpu, then
/// TimeReference; returns the reference's time.
double PrepareTimedOperation();

/// Host times of one kind of timed operation, each with the reference time
/// measured right before it.
struct Timings {
  std::vector<double> ms;
  std::vector<double> reference_ms;

  void Add(double op_ms, double op_reference_ms);
  size_t size() const { return ms.size(); }
  /// Every time at the reference's nominal speed.
  std::vector<double> AtNominalSpeed() const;
};

/// FNV-1a over the simulated outputs of a run (values, energy, bytes, ticks,
/// epochs, admission outcomes). Two runs of one seed, or two commits that
/// claim to change only speed, must produce the same digest.
class Digest {
 public:
  void Add(uint64_t value);
  void AddDouble(double value);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Median plus the highest whole percentile that still has at least ten
/// samples above it (absent when there are fewer than eleven samples).
struct Summary {
  size_t count = 0;
  double median = 0.0;
  int tail_percentile = 0;
  double tail = 0.0;
};
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);

/// Wall-clock spans kept in memory: name, start, end and the enclosing
/// span. Recording is off unless enabled, and a disabled tracer never reads
/// the clock, so the untraced run pays nothing for the span sites.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int Begin(const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Per layer (the span name up to its first '.'), the summed duration of
  /// its spans minus the time their child spans cover. Spans in or under a
  /// diagnostic span (layer "diag": replays and probes that repeat or add to
  /// the workload's work) are left out, so the self times split the
  /// workload's own path and add up to no more than the run.
  std::map<std::string, double> LayerSelfMs() const;
  /// Writes all spans as JSON; returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. An operation is a round or a
/// mutation; it fails only when its output fails its check.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Whole-run checks outside any one operation (e.g. plan divergence).
  bool extra_checks_ok = true;
  std::vector<std::string> errors;
  Digest digest;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, Summary> samples;
  std::map<std::string, double> info;

  void RecordOperation(bool ok, const std::string& what);
  void FailCheck(const std::string& what);
  bool correct() const { return failed == 0 && extra_checks_ok; }
};

}  // namespace perfbench

#endif  // M2M_PERFBENCH_UTIL_H_
