#include "stream/csv_loader.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace dswm {
namespace {

TEST(ParseCsv, BasicNumericRows) {
  const auto rows = ParseCsv("1.5,2,3\n4,5,6.25\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].values, (std::vector<double>{1.5, 2, 3}));
  EXPECT_EQ(rows.value()[0].timestamp, 1);
  EXPECT_EQ(rows.value()[1].timestamp, 2);
}

TEST(ParseCsv, TimestampColumnExtracted) {
  CsvOptions options;
  options.timestamp_column = 0;
  options.timestamp_scale = 10.0;
  const auto rows = ParseCsv("3.0,1,2\n5.0,4,5\n", options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0].timestamp, 30);
  EXPECT_EQ(rows.value()[0].values, (std::vector<double>{1, 2}));
  EXPECT_EQ(rows.value()[1].timestamp, 50);
}

TEST(ParseCsv, SortsByTimestamp) {
  CsvOptions options;
  options.timestamp_column = 0;
  const auto rows = ParseCsv("5,1\n2,7\n9,3\n", options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0].timestamp, 2);
  EXPECT_EQ(rows.value()[1].timestamp, 5);
  EXPECT_EQ(rows.value()[2].timestamp, 9);
}

TEST(ParseCsv, SkipHeaderAndCrLf) {
  CsvOptions options;
  options.skip_header = true;
  const auto rows = ParseCsv("a,b\r\n1,2\r\n", options);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0].values, (std::vector<double>{1, 2}));
}

TEST(ParseCsv, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  const auto rows = ParseCsv("1;2\n3;4\n", options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[1].values, (std::vector<double>{3, 4}));
}

TEST(ParseCsv, RejectsNonNumeric) {
  const auto rows = ParseCsv("1,two\n");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCsv, RejectsRaggedRows) {
  const auto rows = ParseCsv("1,2,3\n4,5\n");
  ASSERT_FALSE(rows.ok());
}

TEST(ParseCsv, RejectsBadTimestampColumn) {
  CsvOptions options;
  options.timestamp_column = 7;
  EXPECT_FALSE(ParseCsv("1,2\n", options).ok());
}

TEST(ParseCsv, RejectsUnrepresentableTimestamps) {
  // NaN has no tick and llround is unspecified outside int64; the error
  // names the line. The scale applies before the range check.
  CsvOptions options;
  options.timestamp_column = 0;
  for (const char* bad : {"nan", "inf", "1e300", "-9.3e18"}) {
    const auto rows = ParseCsv("1,2\n" + std::string(bad) + ",3\n", options);
    ASSERT_FALSE(rows.ok()) << bad;
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rows.status().message().find("line 2"), std::string::npos);
  }
  options.timestamp_scale = 1000.0;
  EXPECT_FALSE(ParseCsv("1e17,1\n", options).ok());
  // In-range negatives parse; RunTracker rejects a stream before tick 0.
  options.timestamp_scale = 1.0;
  const auto rows = ParseCsv("-9.2e18,1\n-5,2\n", options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0].timestamp, -9'200'000'000'000'000'000);
  EXPECT_EQ(rows.value()[1].timestamp, -5);
}

TEST(ParseCsv, EmptyContent) {
  const auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST(LoadCsv, MissingFileIsIoError) {
  const auto rows = LoadCsv("/nonexistent/definitely_missing.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

TEST(LoadCsv, RoundTripThroughDisk) {
  const std::string path = ::testing::TempDir() + "/dswm_csv_test.csv";
  {
    std::ofstream out(path);
    out << "1,0.5\n2,0.25\n";
  }
  const auto rows = LoadCsv(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_DOUBLE_EQ(rows.value()[1].values[1], 0.25);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dswm
