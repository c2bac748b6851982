#include "server/protocol.h"

#include <bit>
#include <limits>

#include "persist/coding.h"

namespace sdss::server {

namespace {

using persist::Cursor;
using persist::PutFixed32;
using persist::PutFixed64;
using persist::PutFixed8;
using persist::PutLengthPrefixed;

void PutF64(std::string* dst, double v) {
  PutFixed64(dst, std::bit_cast<uint64_t>(v));
}

bool GetF64(Cursor* cur, double* v) {
  uint64_t bits = 0;
  if (!cur->GetFixed64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

/// Wraps an encoded payload body into a complete frame.
std::string Finish(MsgType type, std::string_view body) {
  std::string frame;
  frame.reserve(kFrameOverheadBytes + body.size());
  PutFixed32(&frame, static_cast<uint32_t>(body.size() + 1));
  PutFixed8(&frame, static_cast<uint8_t>(type));
  frame.append(body);
  return frame;
}

Status Truncated(MsgType type) {
  return Status::InvalidArgument(std::string("truncated ") +
                                 MsgTypeName(type) + " payload");
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "HELLO";
    case MsgType::kWelcome:
      return "WELCOME";
    case MsgType::kQuery:
      return "QUERY";
    case MsgType::kHeader:
      return "HEADER";
    case MsgType::kRows:
      return "ROWS";
    case MsgType::kDone:
      return "DONE";
    case MsgType::kError:
      return "ERROR";
    case MsgType::kBusy:
      return "BUSY";
    case MsgType::kCancel:
      return "CANCEL";
    case MsgType::kBye:
      return "BYE";
    case MsgType::kStats:
      return "STATS";
    case MsgType::kStatsReport:
      return "STATS_REPORT";
  }
  return "?";
}

Status ErrorMsg::ToStatus() const { return Status::FromCode(code, message); }

std::string EncodeHello(const HelloMsg& msg) {
  std::string body;
  PutFixed32(&body, msg.version);
  PutLengthPrefixed(&body, msg.user);
  PutLengthPrefixed(&body, msg.token);
  return Finish(MsgType::kHello, body);
}

std::string EncodeWelcome(const WelcomeMsg& msg) {
  std::string body;
  PutFixed32(&body, msg.version);
  PutFixed64(&body, msg.session_id);
  PutLengthPrefixed(&body, msg.banner);
  return Finish(MsgType::kWelcome, body);
}

std::string EncodeQuery(const QueryMsg& msg) {
  std::string body;
  PutLengthPrefixed(&body, msg.sql);
  return Finish(MsgType::kQuery, body);
}

std::string EncodeHeader(const HeaderMsg& msg) {
  std::string body;
  PutFixed64(&body, msg.job_id);
  PutFixed8(&body, msg.lane);
  PutFixed8(&body, msg.is_aggregate ? 1 : 0);
  PutFixed32(&body, static_cast<uint32_t>(msg.columns.size()));
  for (const std::string& col : msg.columns) {
    PutLengthPrefixed(&body, col);
  }
  return Finish(MsgType::kHeader, body);
}

std::string EncodeRows(const RowsMsg& msg) { return EncodeRows(msg.rows); }

std::string EncodeRows(const query::RowBatch& rows) {
  std::string body;
  PutFixed32(&body, static_cast<uint32_t>(rows.size()));
  for (const query::ResultRow& row : rows) {
    PutFixed64(&body, row.obj_id);
    PutFixed64(&body, row.obj_id_b);
    PutFixed32(&body, static_cast<uint32_t>(row.values.size()));
    for (double v : row.values) PutF64(&body, v);
  }
  return Finish(MsgType::kRows, body);
}

std::string EncodeDone(const DoneMsg& msg) {
  std::string body;
  PutFixed64(&body, msg.job_id);
  PutFixed64(&body, msg.rows);
  PutF64(&body, msg.seconds_queued);
  PutF64(&body, msg.seconds_running);
  PutFixed64(&body, msg.containers_scanned);
  PutFixed64(&body, msg.bytes_touched);
  // Revision 1.1 trailing block: the per-stage breakdown. Always
  // emitted as a unit; old decoders skip it wholesale.
  PutF64(&body, msg.seconds_plan);
  PutF64(&body, msg.seconds_cache_probe);
  PutF64(&body, msg.seconds_ghost_harvest);
  PutF64(&body, msg.seconds_fan_out);
  PutF64(&body, msg.seconds_stream_out);
  return Finish(MsgType::kDone, body);
}

std::string EncodeError(const ErrorMsg& msg) {
  std::string body;
  PutFixed8(&body, static_cast<uint8_t>(msg.code));
  PutFixed8(&body, msg.fatal ? 1 : 0);
  PutLengthPrefixed(&body, msg.message);
  return Finish(MsgType::kError, body);
}

std::string EncodeBusy(const BusyMsg& msg) {
  std::string body;
  PutFixed32(&body, msg.retry_after_ms);
  PutFixed32(&body, msg.quick_queued);
  PutFixed32(&body, msg.long_queued);
  return Finish(MsgType::kBusy, body);
}

std::string EncodeCancel() { return Finish(MsgType::kCancel, {}); }

std::string EncodeBye() { return Finish(MsgType::kBye, {}); }

std::string EncodeStatsRequest() { return Finish(MsgType::kStats, {}); }

std::string EncodeStatsReport(const StatsMsg& msg) {
  std::string body;
  PutFixed32(&body, msg.version);
  PutFixed32(&body, static_cast<uint32_t>(msg.instruments.size()));
  for (const metrics::InstrumentSnapshot& ins : msg.instruments) {
    PutLengthPrefixed(&body, ins.name);
    PutFixed8(&body, static_cast<uint8_t>(ins.kind));
    switch (ins.kind) {
      case metrics::Kind::kCounter:
        PutFixed64(&body, ins.counter);
        break;
      case metrics::Kind::kGauge:
        PutFixed64(&body, static_cast<uint64_t>(ins.gauge));
        break;
      case metrics::Kind::kHistogram:
        PutFixed64(&body, ins.hist.count);
        PutFixed64(&body, ins.hist.sum);
        // Sparse buckets: (index, count) pairs, ascending index.
        PutFixed32(&body,
                   static_cast<uint32_t>(ins.hist.buckets.size()));
        for (const auto& [index, count] : ins.hist.buckets) {
          PutFixed8(&body, index);
          PutFixed64(&body, count);
        }
        break;
    }
  }
  return Finish(MsgType::kStatsReport, body);
}

Result<HelloMsg> DecodeHello(std::string_view payload) {
  Cursor cur(payload);
  HelloMsg msg;
  std::string_view user, token;
  if (!cur.GetFixed32(&msg.version) || !cur.GetLengthPrefixed(&user) ||
      !cur.GetLengthPrefixed(&token)) {
    return Truncated(MsgType::kHello);
  }
  msg.user.assign(user);
  msg.token.assign(token);
  return msg;
}

Result<WelcomeMsg> DecodeWelcome(std::string_view payload) {
  Cursor cur(payload);
  WelcomeMsg msg;
  std::string_view banner;
  if (!cur.GetFixed32(&msg.version) || !cur.GetFixed64(&msg.session_id) ||
      !cur.GetLengthPrefixed(&banner)) {
    return Truncated(MsgType::kWelcome);
  }
  msg.banner.assign(banner);
  return msg;
}

Result<QueryMsg> DecodeQuery(std::string_view payload) {
  Cursor cur(payload);
  QueryMsg msg;
  std::string_view sql;
  if (!cur.GetLengthPrefixed(&sql)) return Truncated(MsgType::kQuery);
  msg.sql.assign(sql);
  return msg;
}

Result<HeaderMsg> DecodeHeader(std::string_view payload) {
  Cursor cur(payload);
  HeaderMsg msg;
  uint8_t agg = 0;
  uint32_t ncols = 0;
  if (!cur.GetFixed64(&msg.job_id) || !cur.GetFixed8(&msg.lane) ||
      !cur.GetFixed8(&agg) || !cur.GetFixed32(&ncols)) {
    return Truncated(MsgType::kHeader);
  }
  msg.is_aggregate = agg != 0;
  msg.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string_view col;
    if (!cur.GetLengthPrefixed(&col)) return Truncated(MsgType::kHeader);
    msg.columns.emplace_back(col);
  }
  return msg;
}

Result<RowsMsg> DecodeRows(std::string_view payload) {
  Cursor cur(payload);
  RowsMsg msg;
  uint32_t nrows = 0;
  if (!cur.GetFixed32(&nrows)) return Truncated(MsgType::kRows);
  // A row is at least 20 bytes (two ids + the value count), so a hostile
  // count larger than the remaining payload could carry is rejected
  // before any allocation.
  if (nrows > cur.remaining() / 20) {
    return Status::InvalidArgument("ROWS row count exceeds payload size");
  }
  msg.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    query::ResultRow row;
    uint32_t nvals = 0;
    if (!cur.GetFixed64(&row.obj_id) || !cur.GetFixed64(&row.obj_id_b) ||
        !cur.GetFixed32(&nvals)) {
      return Truncated(MsgType::kRows);
    }
    if (nvals > cur.remaining() / 8) {
      return Status::InvalidArgument(
          "ROWS value count exceeds payload size");
    }
    row.values.resize(nvals);
    for (uint32_t j = 0; j < nvals; ++j) {
      if (!GetF64(&cur, &row.values[j])) return Truncated(MsgType::kRows);
    }
    msg.rows.push_back(std::move(row));
  }
  return msg;
}

Result<DoneMsg> DecodeDone(std::string_view payload) {
  Cursor cur(payload);
  DoneMsg msg;
  if (!cur.GetFixed64(&msg.job_id) || !cur.GetFixed64(&msg.rows) ||
      !GetF64(&cur, &msg.seconds_queued) ||
      !GetF64(&cur, &msg.seconds_running) ||
      !cur.GetFixed64(&msg.containers_scanned) ||
      !cur.GetFixed64(&msg.bytes_touched)) {
    return Truncated(MsgType::kDone);
  }
  // The revision 1.1 per-stage block is all-or-nothing: read it only
  // when the full 40 bytes are present, so a frame from an older
  // encoder (or one with unrelated trailing extensions shorter than the
  // block) decodes with the stage fields at 0 rather than garbage.
  if (cur.remaining() >= 40) {
    if (!GetF64(&cur, &msg.seconds_plan) ||
        !GetF64(&cur, &msg.seconds_cache_probe) ||
        !GetF64(&cur, &msg.seconds_ghost_harvest) ||
        !GetF64(&cur, &msg.seconds_fan_out) ||
        !GetF64(&cur, &msg.seconds_stream_out)) {
      return Truncated(MsgType::kDone);
    }
  }
  return msg;
}

Result<ErrorMsg> DecodeError(std::string_view payload) {
  Cursor cur(payload);
  ErrorMsg msg;
  uint8_t code = 0, fatal = 0;
  std::string_view message;
  if (!cur.GetFixed8(&code) || !cur.GetFixed8(&fatal) ||
      !cur.GetLengthPrefixed(&message)) {
    return Truncated(MsgType::kError);
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("ERROR carries an unknown status code");
  }
  msg.code = static_cast<StatusCode>(code);
  msg.fatal = fatal != 0;
  msg.message.assign(message);
  return msg;
}

Result<BusyMsg> DecodeBusy(std::string_view payload) {
  Cursor cur(payload);
  BusyMsg msg;
  if (!cur.GetFixed32(&msg.retry_after_ms) ||
      !cur.GetFixed32(&msg.quick_queued) ||
      !cur.GetFixed32(&msg.long_queued)) {
    return Truncated(MsgType::kBusy);
  }
  return msg;
}

Result<StatsMsg> DecodeStatsReport(std::string_view payload) {
  Cursor cur(payload);
  StatsMsg msg;
  uint32_t count = 0;
  if (!cur.GetFixed32(&msg.version) || !cur.GetFixed32(&count)) {
    return Truncated(MsgType::kStatsReport);
  }
  // An instrument record is at least 13 bytes (name length prefix +
  // kind byte + one u64 value), so a hostile count larger than the
  // remaining payload could carry is rejected before allocation.
  if (count > cur.remaining() / 13) {
    return Status::InvalidArgument(
        "STATS_REPORT instrument count exceeds payload size");
  }
  msg.instruments.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    metrics::InstrumentSnapshot ins;
    std::string_view name;
    uint8_t kind = 0;
    if (!cur.GetLengthPrefixed(&name) || !cur.GetFixed8(&kind)) {
      return Truncated(MsgType::kStatsReport);
    }
    ins.name.assign(name);
    switch (kind) {
      case static_cast<uint8_t>(metrics::Kind::kCounter):
        ins.kind = metrics::Kind::kCounter;
        if (!cur.GetFixed64(&ins.counter)) {
          return Truncated(MsgType::kStatsReport);
        }
        break;
      case static_cast<uint8_t>(metrics::Kind::kGauge): {
        ins.kind = metrics::Kind::kGauge;
        uint64_t bits = 0;
        if (!cur.GetFixed64(&bits)) {
          return Truncated(MsgType::kStatsReport);
        }
        ins.gauge = static_cast<int64_t>(bits);
        break;
      }
      case static_cast<uint8_t>(metrics::Kind::kHistogram): {
        ins.kind = metrics::Kind::kHistogram;
        uint32_t nbuckets = 0;
        if (!cur.GetFixed64(&ins.hist.count) ||
            !cur.GetFixed64(&ins.hist.sum) ||
            !cur.GetFixed32(&nbuckets)) {
          return Truncated(MsgType::kStatsReport);
        }
        // A bucket entry is 9 bytes; there are only 65 distinct
        // buckets, so both bounds guard a hostile count.
        if (nbuckets > metrics::kHistogramBuckets ||
            nbuckets > cur.remaining() / 9) {
          return Status::InvalidArgument(
              "STATS_REPORT bucket count exceeds payload size");
        }
        ins.hist.buckets.reserve(nbuckets);
        for (uint32_t b = 0; b < nbuckets; ++b) {
          uint8_t index = 0;
          uint64_t bucket_count = 0;
          if (!cur.GetFixed8(&index) || !cur.GetFixed64(&bucket_count)) {
            return Truncated(MsgType::kStatsReport);
          }
          if (index >= metrics::kHistogramBuckets) {
            return Status::InvalidArgument(
                "STATS_REPORT bucket index out of range");
          }
          ins.hist.buckets.emplace_back(index, bucket_count);
        }
        break;
      }
      default:
        return Status::InvalidArgument(
            "STATS_REPORT carries an unknown instrument kind");
    }
    msg.instruments.push_back(std::move(ins));
  }
  return msg;
}

bool ConstantTimeEquals(std::string_view a, std::string_view b) {
  // Fold every byte of both strings into one accumulator; no branch in
  // the loop depends on the data, so the runtime is a function of the
  // lengths alone. `volatile` keeps the compiler from rediscovering the
  // early exit this function exists to avoid.
  volatile unsigned char acc =
      static_cast<unsigned char>((a.size() ^ b.size()) != 0);
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    acc = acc | static_cast<unsigned char>(a[i] ^ b[i]);
  }
  return acc == 0;
}

uint32_t SaturatingU32(size_t v) {
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  return static_cast<uint32_t>(v < kMax ? v : kMax);
}

Result<Frame> ReadFrame(TcpConn* conn, size_t max_frame_bytes) {
  char lenbuf[4];
  SDSS_RETURN_IF_ERROR(conn->ReadExact(lenbuf, sizeof(lenbuf)));
  uint32_t len = 0;
  Cursor cur(std::string_view(lenbuf, sizeof(lenbuf)));
  cur.GetFixed32(&len);
  if (len == 0) {
    return Status::InvalidArgument("frame length 0 (missing type byte)");
  }
  if (len > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(max_frame_bytes) + "-byte limit");
  }
  std::string body(len, '\0');
  Status read = conn->ReadExact(body.data(), body.size());
  if (!read.ok()) {
    // EOF mid-frame is a torn stream, not an orderly hang-up.
    if (read.code() == StatusCode::kAborted) {
      return Status::IOError("peer closed the connection mid-frame");
    }
    return read;
  }
  Frame frame;
  frame.type = static_cast<MsgType>(static_cast<uint8_t>(body[0]));
  frame.payload = body.substr(1);
  return frame;
}

}  // namespace sdss::server
