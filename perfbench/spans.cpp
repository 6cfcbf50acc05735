#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

double SpanRecorder::self_seconds(std::size_t id) const {
  const Span& sp = spans_.at(id);
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const auto& c : spans_) {
    if (c.parent == id) {
      kids.emplace_back(std::max(c.start_ns, sp.start_ns),
                        std::min(c.end_ns, sp.end_ns));
    }
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, reach = sp.start_ns;
  for (const auto& [b, e] : kids) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return double(sp.end_ns - sp.start_ns - covered) * 1e-9;
}

bool SpanRecorder::write(const std::string& path,
                         const std::string& workload) const {
  using lmas::obs::Json;
  Json root = Json::object();
  root["run_id"] = run_id_;
  root["workload"] = workload;
  Json list = Json::array();
  for (const auto& sp : spans_) {
    Json j = Json::object();
    j["id"] = (unsigned long long)(sp.id);
    if (sp.parent != kNoParent) j["parent"] = (unsigned long long)(sp.parent);
    j["run_id"] = run_id_;
    j["name"] = sp.name;
    j["start_ns"] = (long long)(sp.start_ns);
    j["end_ns"] = (long long)(sp.end_ns);
    list.push_back(std::move(j));
  }
  root["spans"] = std::move(list);
  std::ofstream out(path);
  out << root.dump(1) << "\n";
  return bool(out);
}

}  // namespace perfbench
