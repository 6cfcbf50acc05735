#pragma once

// In-memory span recorder for the traced benchmark run. Spans are opened
// by the benchmark around its own calls into the library (set-up, run,
// and each layer replay); nothing inside the library is instrumented.
// They are kept in memory and written once, when the run ends.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();

  struct Span {
    std::string name;
    std::size_t id = 0;
    std::size_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {}

  std::size_t begin(std::string name, std::size_t parent) {
    spans_.push_back({std::move(name), spans_.size(), parent, now_ns(), 0});
    return spans_.back().id;
  }
  void end(std::size_t id) { spans_.at(id).end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& run_id() const noexcept { return run_id_; }

  /// Duration of span `id` minus the part of it its direct children cover.
  [[nodiscard]] double self_seconds(std::size_t id) const;

  /// Write every span as JSON; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path,
                           const std::string& workload) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::string run_id_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null
/// recorder (untraced runs) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name,
             std::size_t parent = SpanRecorder::kNoParent)
      : rec_(rec), id_(rec ? rec->begin(std::move(name), parent) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const noexcept {
    return rec_ ? id_ : SpanRecorder::kNoParent;
  }

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

}  // namespace perfbench
