#include "src/base/failpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/logging.h"

namespace camelot {

const char* FailpointActionName(FailpointAction action) {
  switch (action) {
    case FailpointAction::kNone:
      return "none";
    case FailpointAction::kCrash:
      return "crash";
    case FailpointAction::kDrop:
      return "drop";
    case FailpointAction::kDelay:
      return "delay";
    case FailpointAction::kError:
      return "error";
    case FailpointAction::kCallback:
      return "callback";
  }
  return "?";
}

void FailpointRegistry::Arm(std::string_view point, SiteId site, FailpointArm arm) {
  PointState& state = points_[std::string(point)];
  if (state.size() <= site.value) {
    state.resize(site.value + 1);
  }
  state[site.value].arms.push_back(ArmedEntry{std::move(arm), /*fired=*/false});
  ++armed_count_;
}

void FailpointRegistry::DisarmAll() {
  for (auto& [point, state] : points_) {
    for (SiteState& site : state) {
      site.arms.clear();
    }
  }
  armed_count_ = 0;
}

void FailpointRegistry::Reset() {
  points_.clear();
  armed_count_ = 0;
  trace_.clear();
}

void FailpointRegistry::set_recording(bool on) { recording_ = on; }

FailpointRegistry::SiteState* FailpointRegistry::Find(std::string_view point, SiteId site) {
  auto it = points_.find(point);
  if (it == points_.end() || it->second.size() <= site.value) {
    return nullptr;
  }
  return &it->second[site.value];
}

const FailpointRegistry::SiteState* FailpointRegistry::Find(std::string_view point,
                                                            SiteId site) const {
  return const_cast<FailpointRegistry*>(this)->Find(point, site);
}

FailpointHit FailpointRegistry::Eval(std::string_view point, SiteId site, SimTime now) {
  if (!active()) {
    return {};
  }
  auto it = points_.find(point);
  if (it == points_.end()) {
    it = points_.emplace(std::string(point), PointState{}).first;
  }
  PointState& state = it->second;
  if (state.size() <= site.value) {
    state.resize(site.value + 1);
  }
  SiteState& ss = state[site.value];
  const uint64_t hit_number = ++ss.hits;

  FailpointHit hit;
  const FailpointArm* fired = nullptr;
  for (ArmedEntry& entry : ss.arms) {
    if (!entry.fired && entry.arm.hit == hit_number) {
      entry.fired = true;
      --armed_count_;
      fired = &entry.arm;
      hit.action = entry.arm.action;
      hit.delay = entry.arm.delay;
      break;
    }
  }
  if (recording_) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%lldus %.*s@%u#%llu%s%s",
                  static_cast<long long>(now), static_cast<int>(point.size()), point.data(),
                  site.value, static_cast<unsigned long long>(hit_number),
                  fired != nullptr ? " !" : "",
                  fired != nullptr ? FailpointActionName(hit.action) : "");
    trace_.emplace_back(buf);
  }
  // The callback runs here (inside Eval) so the registry's bookkeeping —
  // counter bump, trace line — is already consistent when test code observes
  // the world at the point.
  if (fired != nullptr && hit.action == FailpointAction::kCallback && fired->callback) {
    fired->callback();
  }
  return hit;
}

uint64_t FailpointRegistry::hits(std::string_view point, SiteId site) const {
  const SiteState* ss = Find(point, site);
  return ss == nullptr ? 0 : ss->hits;
}

std::vector<DiscoveredPoint> FailpointRegistry::Discovered() const {
  std::vector<DiscoveredPoint> out;
  for (const auto& [point, state] : points_) {
    for (uint32_t site = 0; site < state.size(); ++site) {
      if (state[site].hits > 0) {
        out.push_back(DiscoveredPoint{point, SiteId{site}, state[site].hits});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const DiscoveredPoint& a, const DiscoveredPoint& b) {
    if (a.point != b.point) {
      return a.point < b.point;
    }
    return a.site.value < b.site.value;
  });
  return out;
}

std::vector<std::string> FailpointRegistry::UnfiredArms() const {
  std::vector<std::string> out;
  for (const auto& [point, state] : points_) {
    for (uint32_t site = 0; site < state.size(); ++site) {
      for (const ArmedEntry& entry : state[site].arms) {
        if (!entry.fired) {
          ScheduleEntry e{point, SiteId{site}, entry.arm.hit, entry.arm.action, entry.arm.delay};
          out.push_back(e.ToString());
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

FailpointHit Failpoints::Eval(std::string_view point) const {
  if (registry_ == nullptr || !registry_->active()) {
    return {};
  }
  if (site_up_ && !site_up_()) {
    return {};  // Dead site: its winding-down coroutines are not protocol history.
  }
  FailpointHit hit = registry_->Eval(point, site_, now_ ? now_() : 0);
  if (hit.action == FailpointAction::kCrash && crash_site_) {
    crash_site_();
  }
  return hit;
}

FailpointHit Failpoints::Eval(std::string_view prefix, std::string_view suffix) const {
  if (!active()) {
    return {};
  }
  char name[128];
  CAMELOT_CHECK(prefix.size() + suffix.size() <= sizeof(name));
  std::memcpy(name, prefix.data(), prefix.size());
  std::memcpy(name + prefix.size(), suffix.data(), suffix.size());
  return Eval(std::string_view(name, prefix.size() + suffix.size()));
}

// --- Schedule strings ------------------------------------------------------------

std::string ScheduleEntry::ToString() const {
  char buf[192];
  if (action == FailpointAction::kDelay) {
    std::snprintf(buf, sizeof(buf), "%s@%u#%llu=delay:%lld", point.c_str(), site.value,
                  static_cast<unsigned long long>(hit), static_cast<long long>(delay));
  } else {
    std::snprintf(buf, sizeof(buf), "%s@%u#%llu=%s", point.c_str(), site.value,
                  static_cast<unsigned long long>(hit), FailpointActionName(action));
  }
  return buf;
}

std::string CrashSchedule::ToString() const {
  std::string out;
  for (const ScheduleEntry& entry : entries) {
    if (!out.empty()) {
      out += ';';
    }
    out += entry.ToString();
  }
  return out;
}

Result<CrashSchedule> CrashSchedule::Parse(std::string_view text) {
  CrashSchedule schedule;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      continue;
    }
    const size_t at = item.find('@');
    const size_t hash = item.find('#', at == std::string_view::npos ? 0 : at);
    const size_t eq = item.find('=', hash == std::string_view::npos ? 0 : hash);
    if (at == std::string_view::npos || hash == std::string_view::npos ||
        eq == std::string_view::npos || at == 0 || hash < at || eq < hash) {
      return InvalidArgumentError("bad schedule entry (want point@site#hit=action): " +
                                  std::string(item));
    }
    ScheduleEntry entry;
    entry.point = std::string(item.substr(0, at));
    entry.site = SiteId{static_cast<uint32_t>(
        std::strtoul(std::string(item.substr(at + 1, hash - at - 1)).c_str(), nullptr, 10))};
    entry.hit = std::strtoull(std::string(item.substr(hash + 1, eq - hash - 1)).c_str(),
                              nullptr, 10);
    if (entry.hit == 0) {
      return InvalidArgumentError("schedule hit numbers are 1-based: " + std::string(item));
    }
    std::string_view action = item.substr(eq + 1);
    if (action == "crash") {
      entry.action = FailpointAction::kCrash;
    } else if (action == "drop") {
      entry.action = FailpointAction::kDrop;
    } else if (action == "error") {
      entry.action = FailpointAction::kError;
    } else if (action.substr(0, 6) == "delay:") {
      entry.action = FailpointAction::kDelay;
      entry.delay = std::strtoll(std::string(action.substr(6)).c_str(), nullptr, 10);
      if (entry.delay <= 0) {
        return InvalidArgumentError("bad delay in schedule entry: " + std::string(item));
      }
    } else {
      return InvalidArgumentError("unknown schedule action: " + std::string(item));
    }
    schedule.entries.push_back(std::move(entry));
  }
  return schedule;
}

void CrashSchedule::ArmAll(FailpointRegistry& registry) const {
  for (const ScheduleEntry& entry : entries) {
    FailpointArm arm;
    arm.action = entry.action;
    arm.hit = entry.hit;
    arm.delay = entry.delay;
    registry.Arm(entry.point, entry.site, std::move(arm));
  }
}

}  // namespace camelot
