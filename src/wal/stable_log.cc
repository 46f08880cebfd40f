#include "src/wal/stable_log.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "src/base/logging.h"

namespace camelot {

namespace {
// Frame layout: payload length (4) + payload CRC (4) + header CRC over the
// first 8 bytes (4). The header CRC lets replay trust the length field, which
// is what makes a torn tail (valid header, payload cut short) distinguishable
// from interior corruption (header or payload CRC mismatch on a complete
// frame).
constexpr size_t kFrameHeaderBytes = 12;
}  // namespace

StableLog::StableLog(Scheduler& sched, LogConfig config)
    : sched_(sched), config_(config), disk_(sched), fault_rng_(sched.rng().Fork()) {}

Lsn StableLog::Append(const LogRecord& record) {
  const Bytes payload = record.Encode();
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload));
  frame.U32(Crc32(frame.bytes().data(), 8));
  const Bytes& header = frame.bytes();
  tail_.insert(tail_.end(), header.begin(), header.end());
  tail_.insert(tail_.end(), payload.begin(), payload.end());
  ++counters_.appends;
  return buffered_lsn();
}

Async<Lsn> StableLog::AppendAndForce(const LogRecord& record) {
  const Lsn lsn = Append(record);
  co_await Force(lsn);
  co_return lsn;
}

SimDuration StableLog::DrawWriteLatency() {
  SimDuration latency = config_.force_latency;
  if (config_.faults.write_stall_probability > 0.0 &&
      fault_rng_.NextBool(config_.faults.write_stall_probability)) {
    latency += config_.faults.write_stall_extra;
    ++counters_.write_stalls;
  }
  return latency;
}

Async<bool> StableLog::AtWritePoint(const char* point, uint64_t epoch) {
  if (!failpoints_.active()) {
    co_return false;
  }
  const FailpointHit hit = failpoints_.Eval(point);
  if (hit.action == FailpointAction::kDelay) {
    co_await sched_.Delay(hit.delay);
  }
  co_return epoch != crash_epoch_;
}

Async<bool> StableLog::Force(Lsn upto) {
  CAMELOT_CHECK(upto.value <= buffered_lsn().value);
  ++counters_.force_requests;
  if (IsDurable(upto)) {
    co_return true;
  }
  if (!config_.group_commit) {
    // Each committer performs its own serial disk write.
    const uint64_t epoch = crash_epoch_;
    co_await disk_.Lock();
    if (epoch != crash_epoch_) {
      disk_.Unlock();
      co_return IsDurable(upto);  // Crashed while queued; caller's world is gone.
    }
    if (!IsDurable(upto)) {
      if (co_await AtWritePoint("wal.force.before_write", epoch)) {
        disk_.Unlock();
        co_return IsDurable(upto);  // A failpoint crashed the site at the write.
      }
      inflight_target_ = upto.value;
      co_await sched_.Delay(DrawWriteLatency());
      if (epoch != crash_epoch_) {
        disk_.Unlock();
        co_return IsDurable(upto);  // Crashed mid-write; OnCrash published the torn prefix.
      }
      inflight_target_ = 0;
      ++counters_.disk_writes;
      Publish(upto.value);
      if (co_await AtWritePoint("wal.force.after_write", epoch)) {
        disk_.Unlock();
        co_return IsDurable(upto);  // Durable, but the site is down.
      }
    } else {
      ++counters_.records_batched;  // Someone else's write covered us anyway.
    }
    disk_.Unlock();
    co_return true;
  }

  // Group commit: enqueue and let the writer daemon batch.
  auto done = std::make_shared<Channel<bool>>(sched_);
  waiters_.push_back(ForceWaiter{upto.value, done});
  if (!writer_running_) {
    writer_running_ = true;
    sched_.Spawn(WriterDaemon());
  }
  co_await done->Receive();
  co_return IsDurable(upto);
}

Async<void> StableLog::WriterDaemon() {
  const uint64_t epoch = crash_epoch_;
  while (!waiters_.empty()) {
    if (config_.batch_window > 0) {
      co_await sched_.Delay(config_.batch_window);
      if (epoch != crash_epoch_) {
        co_return;  // A newer incarnation owns the writer flag now.
      }
    }
    // One physical write covers everything buffered right now — every waiter
    // that queued while the previous write was in progress rides along.
    if (co_await AtWritePoint("wal.force.before_write", epoch)) {
      co_return;  // A failpoint crashed the site; OnCrash closed the waiters.
    }
    const uint64_t target = buffered_lsn().value;
    inflight_target_ = target;
    co_await sched_.Delay(DrawWriteLatency());
    if (epoch != crash_epoch_) {
      co_return;  // Crashed mid-write; OnCrash already published the torn prefix.
    }
    inflight_target_ = 0;
    ++counters_.disk_writes;
    Publish(target);
    if (co_await AtWritePoint("wal.force.after_write", epoch)) {
      co_return;  // Records durable, but the crash already woke the waiters.
    }
    size_t satisfied = 0;
    auto it = waiters_.begin();
    while (it != waiters_.end()) {
      if (it->upto <= durable_bytes_) {
        it->done->Send(true);
        it = waiters_.erase(it);
        ++satisfied;
      } else {
        ++it;
      }
    }
    if (satisfied > 1) {
      counters_.records_batched += satisfied - 1;
    }
  }
  writer_running_ = false;
}

void StableLog::Publish(uint64_t target) {
  CAMELOT_CHECK(target >= durable_bytes_);
  const size_t n = static_cast<size_t>(target - durable_bytes_);
  CAMELOT_CHECK(n <= tail_.size());
  const size_t rel = static_cast<size_t>(durable_bytes_ - base_offset_);
  for (int m = 0; m < active_mirrors(); ++m) {
    Bytes& image = mirror_[m];
    CAMELOT_CHECK(image.size() == rel);
    image.insert(image.end(), tail_.begin(), tail_.begin() + static_cast<ptrdiff_t>(n));
    ++counters_.mirror_writes;
    if (!image.empty() && config_.faults.bit_rot_probability > 0.0 &&
        fault_rng_.NextBool(config_.faults.bit_rot_probability)) {
      // Latent decay of a random byte of this mirror, surfaced only when a
      // CRC check next covers it.
      image[fault_rng_.NextBounded(image.size())] ^=
          static_cast<uint8_t>(1u << fault_rng_.NextBounded(8));
      ++counters_.bit_rot_injected;
    }
  }
  if (n > 0 && config_.faults.torn_write_probability > 0.0 &&
      fault_rng_.NextBool(config_.faults.torn_write_probability)) {
    // An interrupted transfer garbles this write from a random point to its
    // end, on ONE mirror: duplexed mirrors are independent transfers, so a
    // single torn force does not take out both copies.
    const int victim = static_cast<int>(fault_rng_.NextBounded(
        static_cast<uint64_t>(active_mirrors())));
    Bytes& image = mirror_[victim];
    for (size_t i = rel + fault_rng_.NextBounded(n); i < image.size(); ++i) {
      image[i] ^= 0xa5;
    }
    ++counters_.torn_writes_injected;
  }
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<ptrdiff_t>(n));
  durable_bytes_ = target;
  counters_.bytes_written += n;
}

void StableLog::OnCrash() {
  ++crash_epoch_;
  // If a physical write was in progress, each mirror holds an independently
  // torn prefix of it (two disks stop at different points). The durable
  // watermark advances to the longest prefix: a frame is durable as long as
  // either copy holds it intact, and replay salvages across mirrors.
  if (inflight_target_ > durable_bytes_) {
    const uint64_t full = inflight_target_ - durable_bytes_;
    const size_t rel = static_cast<size_t>(durable_bytes_ - base_offset_);
    uint64_t keep = 0;
    for (int m = 0; m < active_mirrors(); ++m) {
      const uint64_t partial = sched_.rng().NextBounded(full + 1);
      mirror_[m].insert(mirror_[m].end(), tail_.begin(),
                        tail_.begin() + static_cast<ptrdiff_t>(partial));
      keep = std::max(keep, partial);
    }
    for (int m = 0; m < active_mirrors(); ++m) {
      // Pad the shorter mirror so offsets stay aligned; the padding never
      // parses as a valid frame and is repaired or truncated at replay.
      mirror_[m].resize(rel + static_cast<size_t>(keep), 0);
    }
    durable_bytes_ += keep;
    counters_.bytes_written += keep;
    inflight_target_ = 0;
  }
  tail_.clear();
  writer_running_ = false;
  for (auto& w : waiters_) {
    w.done->Close();
  }
  waiters_.clear();
}

StableLog::FrameProbe StableLog::Probe(const Bytes& image, size_t pos,
                                       size_t* frame_len) const {
  if (pos + kFrameHeaderBytes > image.size()) {
    return FrameProbe::kTorn;  // Incomplete header at the end of this copy.
  }
  ByteReader header(image.data() + pos, kFrameHeaderBytes);
  const uint32_t len = header.U32();
  const uint32_t payload_crc = header.U32();
  const uint32_t header_crc = header.U32();
  if (Crc32(image.data() + pos, 8) != header_crc) {
    return FrameProbe::kBad;  // Header damaged: the length cannot be trusted.
  }
  if (pos + kFrameHeaderBytes + len > image.size()) {
    return FrameProbe::kTorn;  // Valid header, payload cut short: torn write.
  }
  if (Crc32(image.data() + pos + kFrameHeaderBytes, len) != payload_crc) {
    return FrameProbe::kBad;  // Complete frame, corrupt payload: media damage.
  }
  *frame_len = kFrameHeaderBytes + len;
  return FrameProbe::kValid;
}

LogReplay StableLog::Replay(bool repair) {
  LogReplay out;
  const int n = active_mirrors();
  size_t pos = 0;
  for (;;) {
    FrameProbe probe[2] = {FrameProbe::kTorn, FrameProbe::kTorn};
    size_t frame_len = 0;
    int good = -1;
    std::optional<LogRecord> record;
    for (int m = 0; m < n; ++m) {
      size_t len = 0;
      probe[m] = Probe(mirror_[m], pos, &len);
      if (probe[m] != FrameProbe::kValid) {
        continue;
      }
      Bytes payload(mirror_[m].begin() + static_cast<ptrdiff_t>(pos + kFrameHeaderBytes),
                    mirror_[m].begin() + static_cast<ptrdiff_t>(pos + len));
      auto decoded = LogRecord::Decode(payload);
      if (!decoded.ok()) {
        probe[m] = FrameProbe::kBad;  // CRC-valid but undecodable: damage too.
        continue;
      }
      if (good < 0) {
        good = m;
        frame_len = len;
        record = std::move(*decoded);
      }
    }
    if (good < 0) {
      bool all_at_end = true;
      bool any_torn = false;
      for (int m = 0; m < n; ++m) {
        all_at_end = all_at_end && pos == mirror_[m].size();
        any_torn = any_torn || probe[m] == FrameProbe::kTorn;
      }
      out.end = all_at_end ? LogScanEnd::kCleanEnd
                           : (any_torn ? LogScanEnd::kTornTail
                                       : LogScanEnd::kInteriorCorruption);
      break;
    }
    if (good != 0) {
      // The primary copy of this frame was unreadable; the mirror saved it.
      ++out.frames_salvaged;
      if (repair) {
        ++counters_.frames_salvaged;
      }
    }
    if (repair) {
      for (int m = 0; m < n; ++m) {
        if (m == good || probe[m] == FrameProbe::kValid) {
          continue;
        }
        if (mirror_[m].size() < pos + frame_len) {
          mirror_[m].resize(pos + frame_len);
        }
        std::copy(mirror_[good].begin() + static_cast<ptrdiff_t>(pos),
                  mirror_[good].begin() + static_cast<ptrdiff_t>(pos + frame_len),
                  mirror_[m].begin() + static_cast<ptrdiff_t>(pos));
      }
    }
    record->lsn = Lsn{base_offset_ + pos + frame_len};
    out.records.push_back(std::move(*record));
    pos += frame_len;
  }
  if (repair) {
    if (out.end == LogScanEnd::kInteriorCorruption) {
      ++counters_.interior_corruption;
    } else if (out.end == LogScanEnd::kTornTail && tail_.empty()) {
      // Truncate the torn garbage so subsequent appends extend a clean log.
      // (Without this, a torn frame would sit mid-log forever and silently
      // end every future replay at that point.)
      for (int m = 0; m < n; ++m) {
        mirror_[m].resize(pos);
      }
      durable_bytes_ = base_offset_ + pos;
    }
  }
  return out;
}

void StableLog::ReclaimBefore(Lsn lsn) {
  CAMELOT_CHECK(lsn.value >= base_offset_);
  CAMELOT_CHECK(lsn.value <= durable_bytes_);
  const size_t drop = static_cast<size_t>(lsn.value - base_offset_);
  for (int m = 0; m < active_mirrors(); ++m) {
    CAMELOT_CHECK(mirror_[m].size() >= drop);
    mirror_[m].erase(mirror_[m].begin(), mirror_[m].begin() + static_cast<ptrdiff_t>(drop));
  }
  base_offset_ = lsn.value;
}

bool StableLog::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const Bytes& durable = mirror_[0];
  ByteWriter header;
  header.U32(0x43414d4cu);  // "CAML"
  header.U64(base_offset_);
  header.U64(durable.size());
  header.U32(Crc32(durable));
  bool ok = std::fwrite(header.bytes().data(), 1, header.size(), f) == header.size();
  ok = ok && (durable.empty() ||
              std::fwrite(durable.data(), 1, durable.size(), f) == durable.size());
  std::fclose(f);
  return ok;
}

bool StableLog::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  uint8_t header_bytes[24];
  if (std::fread(header_bytes, 1, sizeof(header_bytes), f) != sizeof(header_bytes)) {
    std::fclose(f);
    return false;
  }
  ByteReader header(header_bytes, sizeof(header_bytes));
  const uint32_t magic = header.U32();
  const uint64_t base = header.U64();
  const uint64_t size = header.U64();
  const uint32_t crc = header.U32();
  if (magic != 0x43414d4cu) {
    std::fclose(f);
    return false;
  }
  Bytes image(size);
  const bool read_ok =
      size == 0 || std::fread(image.data(), 1, image.size(), f) == image.size();
  std::fclose(f);
  if (!read_ok || Crc32(image) != crc) {
    return false;
  }
  mirror_[1] = config_.duplex ? image : Bytes{};
  mirror_[0] = std::move(image);
  base_offset_ = base;
  durable_bytes_ = base + mirror_[0].size();
  tail_.clear();
  return true;
}

void StableLog::CorruptDurableByte(size_t offset, int mirror) {
  CAMELOT_CHECK(mirror >= 0 && mirror < active_mirrors());
  CAMELOT_CHECK(offset < mirror_[mirror].size());
  mirror_[mirror][offset] ^= 0xff;
}

}  // namespace camelot
