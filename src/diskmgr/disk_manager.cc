#include "src/diskmgr/disk_manager.h"

#include <algorithm>

#include "src/base/logging.h"

#include <cstdio>

namespace camelot {

DiskManager::DiskManager(Scheduler& sched, StableLog& log, DiskConfig config)
    : sched_(sched), log_(log), config_(config), io_(sched),
      fault_rng_(sched.rng().Fork()) {}

std::string DiskManager::PageKey(const std::string& segment, const std::string& object) {
  return segment + "\x1f" + object;
}

std::pair<std::string, std::string> DiskManager::SplitKey(const std::string& key) {
  const size_t sep = key.find('\x1f');
  CAMELOT_CHECK(sep != std::string::npos);
  return {key.substr(0, sep), key.substr(sep + 1)};
}

void DiskManager::Touch(const std::string& key, Frame& frame) {
  lru_.erase(frame.lru_pos);
  lru_.push_front(key);
  frame.lru_pos = lru_.begin();
}

void DiskManager::StorePage(const std::string& key, Bytes value) {
  StoredPage& page = disk_[key];
  page.crc = Crc32(value);
  page.data = std::move(value);
  page.sector_lost = false;
}

SimDuration DiskManager::DrawWriteLatency() {
  SimDuration latency = config_.disk_write_latency;
  if (config_.faults.write_stall_probability > 0.0 &&
      fault_rng_.NextBool(config_.faults.write_stall_probability)) {
    latency += config_.faults.write_stall_extra;
    ++counters_.write_stalls;
  }
  return latency;
}

void DiskManager::InjectWriteFaults(const std::string& key, const Bytes& value) {
  if (!config_.faults.AnyEnabled()) {
    return;
  }
  if (!value.empty() && config_.faults.torn_write_probability > 0.0 &&
      fault_rng_.NextBool(config_.faults.torn_write_probability)) {
    // The transfer was interrupted: the stored image is garbled from a random
    // point onward while the stored CRC describes the intended page, so the
    // damage surfaces at the next CRC check instead of being served silently.
    StoredPage& page = disk_[key];
    for (size_t i = fault_rng_.NextBounded(page.data.size()); i < page.data.size(); ++i) {
      page.data[i] ^= 0xa5;
    }
    ++counters_.torn_writes_injected;
  }
  if (!disk_.empty() && config_.faults.bit_rot_probability > 0.0 &&
      fault_rng_.NextBool(config_.faults.bit_rot_probability)) {
    // Latent decay: a random resident page silently loses a bit.
    auto it = disk_.begin();
    std::advance(it, static_cast<ptrdiff_t>(fault_rng_.NextBounded(disk_.size())));
    if (!it->second.data.empty()) {
      it->second.data[fault_rng_.NextBounded(it->second.data.size())] ^=
          static_cast<uint8_t>(1u << fault_rng_.NextBounded(8));
      ++counters_.bit_rot_injected;
    }
  }
  StartScrubber();  // Physical activity re-arms the background scrub.
}

void DiskManager::InjectReadFaults(const std::string& key) {
  if (!config_.faults.AnyEnabled()) {
    return;
  }
  if (config_.faults.latent_sector_error_probability > 0.0 &&
      fault_rng_.NextBool(config_.faults.latent_sector_error_probability)) {
    auto it = disk_.find(key);
    if (it != disk_.end() && !it->second.sector_lost) {
      it->second.sector_lost = true;  // Unreadable until rewritten.
      ++counters_.sector_errors_injected;
    }
  }
  StartScrubber();
}

Async<Result<Bytes>> DiskManager::RepairPage(const std::string& segment,
                                             const std::string& object, bool from_scrub) {
  if (!repair_) {
    ++counters_.repair_failures;
    co_return CorruptionError("page corrupt and no media-repair hook: " + object);
  }
  const uint64_t epoch = crash_epoch_;
  auto rebuilt = co_await repair_(segment, object);
  if (epoch != crash_epoch_) {
    co_return UnavailableError("crashed during media repair");
  }
  if (!rebuilt.ok()) {
    ++counters_.repair_failures;
    co_return rebuilt.status();
  }
  StorePage(PageKey(segment, object), *rebuilt);
  ++counters_.pages_repaired;
  if (from_scrub) {
    ++counters_.scrub_repairs;
  }
  co_return *rebuilt;
}

Async<Result<Bytes>> DiskManager::Read(const std::string& segment, const std::string& object) {
  // Capture the crash epoch: a read that overlaps a crash must fail instead
  // of completing for a caller whose site is gone — a zombie success would
  // let the caller keep mutating the freshly-cleared pool (money-losing).
  const uint64_t epoch = crash_epoch_;
  if (failpoints_.active()) {
    const FailpointHit hit = failpoints_.Eval("disk.read");
    if (hit.action == FailpointAction::kDelay) {
      co_await sched_.Delay(hit.delay);
    }
    if (hit.action == FailpointAction::kError) {
      co_return UnavailableError("failpoint: disk read error");
    }
    if (epoch != crash_epoch_) {
      co_return UnavailableError("crashed during disk read");
    }
  }
  const std::string key = PageKey(segment, object);
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    ++counters_.reads_hit;
    Touch(key, it->second);
    co_return it->second.value;
  }
  // Miss: fault from the data disk.
  auto disk_it = disk_.find(key);
  if (disk_it == disk_.end()) {
    co_return NotFoundError("object not found: " + object);
  }
  ++counters_.reads_miss;
  co_await io_.Lock();
  co_await sched_.Delay(config_.disk_read_latency);
  io_.Unlock();
  if (epoch != crash_epoch_) {
    co_return UnavailableError("crashed during disk read");
  }
  InjectReadFaults(key);
  // Re-check: another reader may have faulted it while we waited.
  it = frames_.find(key);
  if (it != frames_.end()) {
    Touch(key, it->second);
    co_return it->second.value;
  }
  disk_it = disk_.find(key);
  if (disk_it == disk_.end()) {
    co_return NotFoundError("object not found: " + object);
  }
  Bytes value;
  if (disk_it->second.Intact()) {
    value = disk_it->second.data;
  } else {
    // The media garbled this page after it was stored: rebuild it from the
    // log rather than serving corrupt bytes (or failing the read outright).
    ++counters_.crc_failures_detected;
    auto repaired = co_await RepairPage(segment, object, /*from_scrub=*/false);
    if (!repaired.ok()) {
      co_return repaired.status();
    }
    value = std::move(*repaired);
    // The repair awaited: someone may have buffered the page meanwhile.
    it = frames_.find(key);
    if (it != frames_.end()) {
      Touch(key, it->second);
      co_return it->second.value;
    }
  }
  co_await EnsureRoom();
  Frame frame;
  frame.value = value;
  frame.dirty = false;
  lru_.push_front(key);
  frame.lru_pos = lru_.begin();
  frames_.emplace(key, std::move(frame));
  co_return value;
}

Async<Status> DiskManager::Write(const std::string& segment, const std::string& object,
                                 Bytes value, Lsn rec_lsn) {
  const uint64_t epoch = crash_epoch_;
  const std::string key = PageKey(segment, object);
  auto it = frames_.find(key);
  if (it == frames_.end()) {
    co_await EnsureRoom();
    if (epoch != crash_epoch_) {
      co_return UnavailableError("crashed during page write");
    }
    Frame frame;
    lru_.push_front(key);
    frame.lru_pos = lru_.begin();
    it = frames_.emplace(key, std::move(frame)).first;
  } else {
    Touch(key, it->second);
  }
  it->second.value = std::move(value);
  it->second.dirty = true;
  if (rec_lsn > it->second.page_lsn) {
    it->second.page_lsn = rec_lsn;
  }
  ++counters_.writes;
  co_return OkStatus();
}

Async<bool> DiskManager::Exists(const std::string& segment, const std::string& object) {
  const std::string key = PageKey(segment, object);
  co_return frames_.contains(key) || disk_.contains(key);
}

Async<void> DiskManager::EnsureRoom() {
  while (frames_.size() >= config_.pool_frames && !lru_.empty()) {
    const std::string victim_key = lru_.back();
    auto it = frames_.find(victim_key);
    CAMELOT_CHECK(it != frames_.end());
    ++counters_.evictions;
    if (it->second.dirty) {
      co_await FlushFrame(victim_key, it->second);
    }
    // Re-find: the map may have been reshaped while flushing.
    it = frames_.find(victim_key);
    if (it != frames_.end() && !it->second.dirty) {
      lru_.erase(it->second.lru_pos);
      frames_.erase(it);
    }
  }
}

Async<void> DiskManager::FlushFrame(const std::string& key, Frame& frame) {
  // WAL rule: the log must cover the page before the page reaches the disk.
  if (!log_.IsDurable(frame.page_lsn)) {
    ++counters_.wal_forces;
    const bool durable = co_await log_.Force(frame.page_lsn);
    if (!durable) {
      co_return;  // Crashed mid-force; the pool is gone anyway.
    }
  }
  if (failpoints_.active()) {
    const FailpointHit hit = failpoints_.Eval("disk.flush.before_write");
    if (hit.action == FailpointAction::kDelay) {
      co_await sched_.Delay(hit.delay);
    }
  }
  co_await io_.Lock();
  co_await sched_.Delay(DrawWriteLatency());
  io_.Unlock();
  auto it = frames_.find(key);
  if (it == frames_.end()) {
    co_return;  // Evaporated during I/O (crash).
  }
  StorePage(key, it->second.value);
  InjectWriteFaults(key, it->second.value);
  it->second.dirty = false;
  if (failpoints_.active()) {
    failpoints_.Eval("disk.flush.after_write");  // Page stored; crash lands here.
  }
}

Async<void> DiskManager::FlushAll() {
  // Snapshot keys first; FlushFrame awaits and the map may change under us.
  std::vector<std::string> keys;
  keys.reserve(frames_.size());
  for (auto& [key, frame] : frames_) {
    if (frame.dirty) {
      keys.push_back(key);
    }
  }
  for (const auto& key : keys) {
    auto it = frames_.find(key);
    if (it != frames_.end() && it->second.dirty) {
      co_await FlushFrame(key, it->second);
    }
  }
}

void DiskManager::OnCrash() {
  ++crash_epoch_;
  scrubber_running_ = false;  // The incarnation notices the epoch and retires.
  frames_.clear();
  lru_.clear();
}

void DiskManager::StartScrubber() {
  if (config_.scrub_interval <= 0 || scrubber_running_) {
    return;
  }
  scrubber_running_ = true;
  sched_.Spawn(ScrubberLoop(crash_epoch_));
}

Async<void> DiskManager::ScrubberLoop(uint64_t epoch) {
  // Sweeps the data disk in batches, CRC-checking every resident page and
  // repairing failures via the media-repair hook. The loop retires once a
  // full sweep finds nothing to repair and no new physical activity occurred
  // (so an idle simulation can drain); any later physical transfer re-arms it.
  uint64_t sweep_start_activity = counters_.writes + counters_.reads_miss;
  bool sweep_repaired = false;
  while (true) {
    co_await sched_.Delay(config_.scrub_interval);
    if (epoch != crash_epoch_) {
      co_return;  // The site crashed; a restart spawns a fresh incarnation.
    }
    std::vector<std::string> keys;
    keys.reserve(disk_.size());
    for (const auto& [key, page] : disk_) {
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    if (keys.empty()) {
      break;
    }
    bool wrapped = false;
    for (size_t i = 0; i < config_.scrub_pages_per_pass; ++i) {
      if (scrub_cursor_ >= keys.size()) {
        scrub_cursor_ = 0;
        wrapped = true;
      }
      const std::string key = keys[scrub_cursor_++];
      auto it = disk_.find(key);
      if (it == disk_.end()) {
        continue;
      }
      ++counters_.pages_scrubbed;
      if (it->second.Intact()) {
        continue;
      }
      ++counters_.crc_failures_detected;
      auto [segment, object] = SplitKey(key);
      auto repaired = co_await RepairPage(segment, object, /*from_scrub=*/true);
      if (epoch != crash_epoch_) {
        co_return;
      }
      sweep_repaired = sweep_repaired || repaired.ok();
    }
    if (wrapped) {
      const uint64_t activity = counters_.writes + counters_.reads_miss;
      if (!sweep_repaired && activity == sweep_start_activity) {
        break;  // Quiescent and clean: let the event queue drain.
      }
      sweep_start_activity = activity;
      sweep_repaired = false;
    }
  }
  if (epoch == crash_epoch_) {
    scrubber_running_ = false;
  }
}

void DiskManager::RecoveryWrite(const std::string& segment, const std::string& object,
                                Bytes value) {
  StorePage(PageKey(segment, object), std::move(value));
}

Result<Bytes> DiskManager::RecoveryRead(const std::string& segment,
                                        const std::string& object) const {
  auto it = disk_.find(PageKey(segment, object));
  if (it == disk_.end()) {
    return NotFoundError("object not on disk: " + object);
  }
  if (!it->second.Intact()) {
    return CorruptionError("stored page fails CRC: " + object);
  }
  return it->second.data;
}

std::vector<std::pair<std::string, std::string>> DiskManager::CorruptPages() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, page] : disk_) {
    if (!page.Intact()) {
      out.push_back(SplitKey(key));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void DiskManager::CorruptStoredPage(const std::string& segment, const std::string& object) {
  auto it = disk_.find(PageKey(segment, object));
  CAMELOT_CHECK(it != disk_.end());
  if (it->second.data.empty()) {
    it->second.sector_lost = true;
  } else {
    it->second.data[0] ^= 0xff;
  }
}

bool DiskManager::SaveToFile(const std::string& path) const {
  ByteWriter w;
  w.U32(0x43444953u);  // "CDIS"
  w.U64(disk_.size());
  for (const auto& [key, page] : disk_) {
    w.Str(key);
    w.Blob(page.data);
  }
  const std::span<const uint8_t> image = w.bytes();
  ByteWriter trailer;
  trailer.U32(Crc32(image));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(image.data(), 1, image.size(), f) == image.size();
  ok = ok && std::fwrite(trailer.bytes().data(), 1, 4, f) == 4;
  std::fclose(f);
  return ok;
}

bool DiskManager::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 16) {
    std::fclose(f);
    return false;
  }
  Bytes raw(static_cast<size_t>(size));
  const bool read_ok = std::fread(raw.data(), 1, raw.size(), f) == raw.size();
  std::fclose(f);
  if (!read_ok) {
    return false;
  }
  const Bytes image(raw.begin(), raw.end() - 4);
  ByteReader trailer(raw.data() + raw.size() - 4, 4);
  if (Crc32(image) != trailer.U32()) {
    return false;
  }
  ByteReader r(image);
  if (r.U32() != 0x43444953u) {
    return false;
  }
  const uint64_t count = r.U64();
  std::unordered_map<std::string, StoredPage> loaded;
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string key = r.Str();
    Bytes value = r.Blob();
    StoredPage page;
    page.crc = Crc32(value);
    page.data = std::move(value);
    loaded.emplace(std::move(key), std::move(page));
  }
  if (!r.ok()) {
    return false;
  }
  disk_ = std::move(loaded);
  frames_.clear();
  lru_.clear();
  return true;
}

size_t DiskManager::dirty_frames() const {
  size_t n = 0;
  for (const auto& [key, frame] : frames_) {
    if (frame.dirty) {
      ++n;
    }
  }
  return n;
}

}  // namespace camelot
