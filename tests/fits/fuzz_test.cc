// Adversarial-input tests: the FITS parsers must reject (never crash on)
// corrupted, truncated, bit-flipped, or random input. Seeds are fixed so
// failures reproduce.

#include <gtest/gtest.h>

#include "core/random.h"
#include "fits/packet_stream.h"
#include "fits/table.h"

namespace sdss::fits {
namespace {

std::string RandomBytes(Rng* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng->UniformInt(0, 255));
  }
  return s;
}

std::string RandomPrintable(Rng* rng, size_t n) {
  std::string s(n, ' ');
  for (char& c : s) {
    c = static_cast<char>(rng->UniformInt(32, 126));
  }
  return s;
}

Table SampleTable() {
  Table t(std::vector<ColumnSpec>{{"ID", ColumnType::kInt64, 0, ""},
                                  {"V", ColumnType::kDouble, 0, ""},
                                  {"N", ColumnType::kString, 8, ""}});
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(
        t.AppendRow({int64_t{i}, i * 0.5, std::string("row")}).ok());
  }
  return t;
}

TEST(FitsFuzzTest, CardParseNeverCrashesOnPrintableGarbage) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    std::string record = RandomPrintable(&rng, 80);
    auto card = Card::Parse(record);  // ok() or error; never crashes.
    if (card.ok() && !card->is_comment() && !card->is_end()) {
      // Parsed cards must re-serialize to 80 chars.
      EXPECT_EQ(card->Serialize().size(), 80u);
    }
  }
}

TEST(FitsFuzzTest, CardParseNeverCrashesOnBinaryGarbage) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    auto card = Card::Parse(RandomBytes(&rng, 80));
    (void)card;
  }
}

TEST(FitsFuzzTest, HeaderParseOnRandomBlocks) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string block = RandomPrintable(&rng, kBlockSize);
    size_t offset = 0;
    auto header = Header::Parse(block, &offset);
    // Random text virtually never contains END: expect an error, and
    // offset must not run past the input.
    EXPECT_LE(offset, block.size());
    (void)header;
  }
}

TEST(FitsFuzzTest, BinaryTableRejectsBitFlips) {
  std::string bytes = BinaryTable::Serialize(SampleTable());
  Rng rng(4);
  int rejected = 0, accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    // Flip a byte in the header region (structure carriers).
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kBlockSize) - 1));
    mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    size_t offset = 0;
    auto parsed = BinaryTable::Parse(mutated, &offset);
    if (parsed.ok()) {
      ++accepted;  // Flip hit a comment/padding byte: still valid.
    } else {
      ++rejected;
    }
  }
  // Most header corruptions must be detected.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(rejected + accepted, 200);
}

TEST(FitsFuzzTest, BinaryTableRejectsTruncationAtEveryBlock) {
  std::string bytes = BinaryTable::Serialize(SampleTable());
  for (size_t cut = 0; cut < bytes.size(); cut += kBlockSize) {
    std::string truncated = bytes.substr(0, cut);
    size_t offset = 0;
    auto parsed = BinaryTable::Parse(truncated, &offset);
    EXPECT_FALSE(parsed.ok()) << "cut at " << cut;
  }
}

TEST(FitsFuzzTest, PacketStreamRejectsShuffledPackets) {
  PacketStreamWriter w(
      std::vector<ColumnSpec>{{"ID", ColumnType::kInt64, 0, ""}},
      {.rows_per_packet = 4});
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(w.Append({int64_t{i}}).ok());
  }
  ASSERT_TRUE(w.Finish().ok());
  std::string bytes = w.TakeOutput();

  // All packets are the same size here; swap the first two.
  size_t packet_size = bytes.size() / 4;
  std::string shuffled = bytes.substr(packet_size, packet_size) +
                         bytes.substr(0, packet_size) +
                         bytes.substr(2 * packet_size);
  Status st = PacketStreamReader::Consume(
      shuffled, [](const Table&, const PacketStreamReader::PacketInfo&) {
        return true;
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(FitsFuzzTest, PacketStreamRejectsTrailingGarbage) {
  PacketStreamWriter w(
      std::vector<ColumnSpec>{{"ID", ColumnType::kInt64, 0, ""}},
      {.rows_per_packet = 4});
  ASSERT_TRUE(w.Append({int64_t{1}}).ok());
  ASSERT_TRUE(w.Finish().ok());
  Rng rng(5);
  std::string bytes = w.TakeOutput() + RandomBytes(&rng, kBlockSize);
  Status st = PacketStreamReader::Consume(
      bytes, [](const Table&, const PacketStreamReader::PacketInfo&) {
        return true;
      });
  EXPECT_FALSE(st.ok());
}

TEST(FitsFuzzTest, EmptyInputIsRejectedEverywhere) {
  size_t offset = 0;
  EXPECT_FALSE(Header::Parse("", &offset).ok());
  offset = 0;
  EXPECT_FALSE(BinaryTable::Parse("", &offset).ok());
  offset = 0;
  EXPECT_FALSE(AsciiTable::Parse("", &offset).ok());
  EXPECT_FALSE(PacketStreamReader::ReadAll("").ok());
}

TEST(FitsFuzzTest, RoundTripSurvivesManySchemas) {
  // Randomized schemas and row counts, round-tripped bit-exactly.
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ColumnSpec> schema;
    int cols = static_cast<int>(rng.UniformInt(1, 6));
    for (int c = 0; c < cols; ++c) {
      ColumnSpec spec;
      spec.name = "C";
      spec.name += std::to_string(c);
      switch (rng.UniformInt(0, 4)) {
        case 0:
          spec.type = ColumnType::kFloat;
          break;
        case 1:
          spec.type = ColumnType::kDouble;
          break;
        case 2:
          spec.type = ColumnType::kInt32;
          break;
        case 3:
          spec.type = ColumnType::kInt64;
          break;
        default:
          spec.type = ColumnType::kString;
          spec.width = static_cast<size_t>(rng.UniformInt(1, 16));
          break;
      }
      schema.push_back(spec);
    }
    Table t(schema);
    int rows = static_cast<int>(rng.UniformInt(0, 50));
    for (int r = 0; r < rows; ++r) {
      std::vector<Table::Cell> cells;
      for (const ColumnSpec& spec : schema) {
        switch (spec.type) {
          case ColumnType::kFloat:
            cells.emplace_back(static_cast<float>(rng.Gaussian()));
            break;
          case ColumnType::kDouble:
            cells.emplace_back(rng.Gaussian());
            break;
          case ColumnType::kInt32:
            cells.emplace_back(
                static_cast<int32_t>(rng.UniformInt(-1000, 1000)));
            break;
          case ColumnType::kInt64:
            cells.emplace_back(rng.UniformInt(-1000000, 1000000));
            break;
          case ColumnType::kString:
            cells.emplace_back(std::string("s") +
                               std::to_string(rng.UniformInt(0, 99)));
            break;
        }
      }
      ASSERT_TRUE(t.AppendRow(cells).ok());
    }
    std::string bytes = BinaryTable::Serialize(t);
    size_t offset = 0;
    auto parsed = BinaryTable::Parse(bytes, &offset);
    ASSERT_TRUE(parsed.ok()) << trial;
    ASSERT_EQ(parsed->num_rows(), t.num_rows());
    // Re-serialization is byte-identical (canonical form).
    EXPECT_EQ(BinaryTable::Serialize(*parsed), bytes) << trial;
  }
}

}  // namespace
}  // namespace sdss::fits
