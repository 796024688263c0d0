#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

bool ValueMatches(double got, double want) {
  return std::fabs(got - want) <= 1e-4 * std::max(1.0, std::fabs(want));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB. A workload selects its reference before it builds
  // anything, and the chase array stays resident from then on, so it adds
  // exactly its size to the peak.
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -
         ReferenceResidentMb();
}

namespace {

struct CpuSet {
  cpu_set_t all;
  std::vector<int> cpus;
  size_t next = 0;

  CpuSet() {
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
    }
  }
};

CpuSet& StartingCpus() {
  static CpuSet set;
  return set;
}

}  // namespace

void RotateCpu() {
  CpuSet& set = StartingCpus();
  if (set.cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(set.cpus[set.next++ % set.cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void RestoreCpus() {
  CpuSet& set = StartingCpus();
  if (!set.cpus.empty()) sched_setaffinity(0, sizeof(set.all), &set.all);
}

namespace {

// Nominal times of the two parts of the reference: near their times on a
// 4-vCPU Intel Xeon host in its fast phases.
constexpr double kCacheNominalMs = 2.0;
constexpr double kMemoryNominalMs = 4.0;
constexpr uint32_t kChaseSlots = uint32_t{1} << 22;

volatile uint64_t reference_sink = 0;

ReferenceKind reference_kind = ReferenceKind::kCacheResident;

// Sorts 16k pseudo-random keys, inserts them into an open-addressing hash
// table and looks each one up in a second order (~2 ms over 512 KiB).
void CachePart() {
  constexpr size_t kKeys = size_t{1} << 14;
  constexpr size_t kSlots = 2 * kKeys;
  static std::vector<uint64_t> keys(kKeys);
  static std::vector<uint64_t> sorted(kKeys);
  static std::vector<uint64_t> table(kSlots);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x | 1;  // 0 marks an empty slot.
  }
  std::copy(keys.begin(), keys.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  std::fill(table.begin(), table.end(), 0);
  auto home = [](uint64_t key) {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 49);
  };
  for (uint64_t key : sorted) {
    size_t slot = home(key);
    while (table[slot] != 0) slot = (slot + 1) % kSlots;
    table[slot] = key;
  }
  uint64_t probes = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    const uint64_t key = keys[(i * 7919) % kKeys];
    for (size_t slot = home(key); table[slot] != key;
         slot = (slot + 1) % kSlots) {
      ++probes;
    }
  }
  reference_sink = reference_sink + probes;
}

// One random cycle through kChaseSlots slots (Sattolo's algorithm).
std::vector<uint32_t>& ChaseCycle() {
  static std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> next(kChaseSlots);
    for (uint32_t i = 0; i < kChaseSlots; ++i) next[i] = i;
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (uint32_t i = kChaseSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  return cycle;
}

// 16k dependent loads along the chase cycle (~4 ms over 16 MiB).
void MemoryPart() {
  const std::vector<uint32_t>& next = ChaseCycle();
  uint32_t at = 0;
  for (int i = 0; i < (1 << 14); ++i) at = next[at];
  reference_sink = reference_sink + at;
}

double ReferenceNominalMs() {
  return reference_kind == ReferenceKind::kCacheResident
             ? kCacheNominalMs
             : kCacheNominalMs + kMemoryNominalMs;
}

}  // namespace

void UseReference(ReferenceKind kind) {
  reference_kind = kind;
  if (kind == ReferenceKind::kWithMemory) ChaseCycle();
}

double ReferenceResidentMb() {
  if (reference_kind == ReferenceKind::kCacheResident) return 0.0;
  return static_cast<double>(kChaseSlots * sizeof(uint32_t)) / (1 << 20);
}

double TimeReference() {
  const Clock::time_point start = Clock::now();
  CachePart();
  if (reference_kind == ReferenceKind::kWithMemory) MemoryPart();
  return MsBetween(start, Clock::now());
}

double PrepareTimedOperation() {
  RotateCpu();
  return TimeReference();
}

void Timings::Add(double op_ms, double op_reference_ms) {
  ms.push_back(op_ms);
  reference_ms.push_back(op_reference_ms);
}

std::vector<double> Timings::AtNominalSpeed() const {
  std::vector<double> scaled;
  for (size_t i = 0; i < ms.size(); ++i) {
    scaled.push_back(ms[i] * ReferenceNominalMs() / reference_ms[i]);
  }
  return scaled;
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;
  }
}

void Digest::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

std::string Digest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary Summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.median = Median(samples);
  const size_t n = samples.size();
  if (n > 10) {
    // Highest p whose nearest-rank index leaves >= 10 samples above it.
    int p = static_cast<int>(100.0 * static_cast<double>(n - 10) /
                             static_cast<double>(n));
    while (p > 0) {
      size_t rank = static_cast<size_t>(
          std::ceil(p / 100.0 * static_cast<double>(n)));
      if (rank >= 1 && n - rank >= 10) break;
      --p;
    }
    if (p > 0) {
      size_t rank = static_cast<size_t>(
          std::ceil(p / 100.0 * static_cast<double>(n)));
      summary.tail_percentile = p;
      summary.tail = samples[rank - 1];
    }
  }
  return summary;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ms = MsBetween(origin_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_ms = MsBetween(origin_, Clock::now());
  // Spans are strictly nested (RAII in serial code): `id` is the top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_ms - span.start_ms);
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ms[span.parent] += span.end_ms - span.start_ms;
  }
  // A span is recorded after its parent, so one forward pass marks every
  // span under a diagnostic one.
  std::vector<bool> diagnostic(spans_.size(), false);
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const int parent = spans_[i].parent;
    diagnostic[i] = layer == "diag" || (parent >= 0 && diagnostic[parent]);
    if (diagnostic[i]) continue;
    self[layer] += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": \""
        << span.name << "\", \"start_ms\": " << span.start_ms
        << ", \"end_ms\": " << span.end_ms << ", \"parent\": " << span.parent
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void RunResult::RecordOperation(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
}

void RunResult::FailCheck(const std::string& what) {
  extra_checks_ok = false;
  if (errors.size() < 8) errors.push_back(what);
}

}  // namespace perfbench
