// Tests for the utility layer: flag parsing, table/CSV rendering, PRNG
// determinism and distribution sanity, the JSON string escaper, and the
// file writer every exporter shares.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/black_box.h"
#include "sim/task_trace.h"
#include "sim/telemetry.h"
#include "sim/trace.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/html_report.h"
#include "util/json.h"
#include "util/prng.h"
#include "util/table.h"

namespace scq::util {
namespace {

// ---- ArgParser ----

std::vector<char*> argv_of(std::vector<std::string>& storage) {
  std::vector<char*> out;
  out.reserve(storage.size());
  for (auto& s : storage) out.push_back(s.data());
  return out;
}

TEST(ArgParserTest, DefaultsApplyWithoutFlags) {
  ArgParser p("t", "test");
  p.add_int("n", "count", 7);
  p.add_flag("verbose", "talk", false);
  p.add_double("scale", "s", 0.5);
  p.add_string("name", "n", "x");
  std::vector<std::string> raw{"prog"};
  auto argv = argv_of(raw);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("n"), 7);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_DOUBLE_EQ(p.get_double("scale"), 0.5);
  EXPECT_EQ(p.get_string("name"), "x");
}

TEST(ArgParserTest, EqualsAndSpaceSyntax) {
  ArgParser p("t", "test");
  p.add_int("n", "count", 0);
  p.add_double("scale", "s", 0.0);
  p.add_flag("verbose", "talk", false);
  std::vector<std::string> raw{"prog", "--n=42", "--scale", "0.25", "--verbose"};
  auto argv = argv_of(raw);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(p.get_double("scale"), 0.25);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParserTest, UnknownFlagFails) {
  ArgParser p("t", "test");
  std::vector<std::string> raw{"prog", "--nope"};
  auto argv = argv_of(raw);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParserTest, BadIntegerFails) {
  ArgParser p("t", "test");
  p.add_int("n", "count", 0);
  std::vector<std::string> raw{"prog", "--n=abc"};
  auto argv = argv_of(raw);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParserTest, MissingValueFails) {
  ArgParser p("t", "test");
  p.add_int("n", "count", 0);
  std::vector<std::string> raw{"prog", "--n"};
  auto argv = argv_of(raw);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParserTest, PositionalArgumentsCollected) {
  ArgParser p("t", "test");
  p.add_flag("v", "", false);
  std::vector<std::string> raw{"prog", "a.gr", "--v", "b.gr"};
  auto argv = argv_of(raw);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"a.gr", "b.gr"}));
}

TEST(ArgParserTest, WrongTypeAccessThrows) {
  ArgParser p("t", "test");
  p.add_int("n", "count", 0);
  EXPECT_THROW((void)p.get_flag("n"), std::logic_error);
  EXPECT_THROW((void)p.get_int("missing"), std::logic_error);
}

// ---- Table ----

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long header"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a      | long header |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2           |"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("| only |"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmt_double(1.23456, 3), "1.235");
  EXPECT_EQ(Table::fmt_ms(0.001234), "1.2340");
  EXPECT_EQ(Table::fmt_percent(1.2845), "128.45%");
  EXPECT_EQ(Table::fmt_speedup(2.5), "2.50x");
}

// ---- CSV ----

TEST(CsvTest, RendersRowsAndEscapes) {
  CsvWriter csv({"name", "value"});
  csv.add_row({"plain", "1"});
  csv.add_row({"with,comma", "quote\"inside"});
  const std::string out = csv.render();
  EXPECT_NE(out.find("name,value\n"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(CsvTest, WriteToTmpFile) {
  CsvWriter csv({"x"});
  csv.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/scq_csv_test.csv";
  ASSERT_TRUE(csv.write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

TEST(CsvTest, WriteToBadPathFails) {
  CsvWriter csv({"x"});
  EXPECT_FALSE(csv.write("/nonexistent-dir/impossible.csv"));
}

// ---- JSON escaping ----

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain.name_0"), "plain.name_0");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // Bytes from 0x20 up, UTF-8 included, pass through unchanged.
  EXPECT_EQ(json_escape("\xc3\xa9 ~"), "\xc3\xa9 ~");
  ASSERT_TRUE(parse_json("\"" + json_escape("x\x02\ny") + "\"").has_value());
}

// ---- Writers on a full disk ----
//
// /dev/full accepts the open and fails the write (ENOSPC), which a
// buffered stream reports only at the flush in fclose. Every exporter
// goes through write_file, so each must report the failure.

class FullDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(kFull)) GTEST_SKIP() << kFull << " is absent";
  }
  static constexpr const char* kFull = "/dev/full";
};

TEST_F(FullDiskTest, WriteFileFails) {
  EXPECT_FALSE(write_file(kFull, "body"));
}

TEST_F(FullDiskTest, CsvWriterFails) {
  CsvWriter csv({"x"});
  csv.add_row({"1"});
  EXPECT_FALSE(csv.write(kFull));
}

TEST_F(FullDiskTest, BlackBoxWriterFails) {
  EXPECT_FALSE(write_black_box(BlackBoxBuilder("reason").to_json(), kFull));
}

TEST_F(FullDiskTest, TelemetryWriterFails) {
  EXPECT_FALSE(simt::Telemetry().write_json(kFull));
}

TEST_F(FullDiskTest, TraceWriterFails) {
  EXPECT_FALSE(simt::TraceRecorder().write_chrome_json(kFull));
}

TEST_F(FullDiskTest, TaskTraceWriterFails) {
  EXPECT_FALSE(simt::TaskTrace().write_json(kFull));
}

TEST_F(FullDiskTest, HtmlReportWriterFails) {
  EXPECT_FALSE(HtmlReportBuilder().write(kFull));
}

// ---- PRNG ----

TEST(PrngTest, DeterministicForSeed) {
  Xoshiro256 a(5), b(5), c(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool any_diff = false;
  Xoshiro256 a2(5);
  for (int i = 0; i < 100; ++i) any_diff |= a2() != c();
  EXPECT_TRUE(any_diff);
}

TEST(PrngTest, BelowStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(PrngTest, BelowCoversAllResidues) {
  Xoshiro256 rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(PrngTest, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(PrngTest, ChanceRoughlyCalibrated) {
  Xoshiro256 rng(12);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace scq::util
