// Bench command line and JSON output:
//
//  1. ParseBenchArgs: the shared flags, their "=path" forms, output-path
//     stems for the derived trace/timeseries paths, and rejection of any
//     unknown "-" argument (it must not become the output path).
//  2. JsonWriter: block and inline containers nested in each other, comma
//     and bracket placement, per-value double precision, and the trailing
//     newline that makes consecutive top-level objects JSONL.
//  3. WriteOutputFile: a file that cannot be opened or written is reported
//     as a failure.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/stats/json_writer.h"

namespace leap {
namespace {

std::optional<bench::BenchArgs> Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  std::string prog = "bench";
  argv.push_back(prog.data());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return bench::ParseBenchArgs(static_cast<int>(argv.size()), argv.data(),
                               "BENCH_x.json", "[--smoke] [output.json]");
}

TEST(ParseBenchArgsTest, DefaultsToFullRunAndDefaultPath) {
  const auto args = Parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_FALSE(args->smoke);
  EXPECT_FALSE(args->trace);
  EXPECT_FALSE(args->timeseries);
  EXPECT_EQ(args->json_path, "BENCH_x.json");
  EXPECT_EQ(args->trace_path, "");
  EXPECT_EQ(args->timeseries_path, "");
}

TEST(ParseBenchArgsTest, KnownFlagsAndDerivedPaths) {
  const auto args = Parse({"--smoke", "--trace", "--timeseries", "out.json"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->smoke);
  EXPECT_EQ(args->json_path, "out.json");
  EXPECT_EQ(args->trace_path, "out.trace.json");
  EXPECT_EQ(args->timeseries_path, "out.timeseries.jsonl");
}

TEST(ParseBenchArgsTest, StemKeepsNonJsonPathWhole) {
  const auto args = Parse({"--trace", "--timeseries", "results"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->trace_path, "results.trace.json");
  EXPECT_EQ(args->timeseries_path, "results.timeseries.jsonl");
}

TEST(ParseBenchArgsTest, ExplicitObservabilityPaths) {
  const auto args = Parse({"--trace=t.json", "--timeseries=ts.jsonl"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->trace);
  EXPECT_TRUE(args->timeseries);
  EXPECT_EQ(args->trace_path, "t.json");
  EXPECT_EQ(args->timeseries_path, "ts.jsonl");
  EXPECT_EQ(args->json_path, "BENCH_x.json");
}

TEST(ParseBenchArgsTest, RejectsUnknownFlags) {
  EXPECT_FALSE(Parse({"--smok"}).has_value());
  EXPECT_FALSE(Parse({"--smoke", "-x", "out.json"}).has_value());
  EXPECT_FALSE(Parse({"--hosts", "4"}).has_value());
  // A bare "-" is a path, not a flag.
  const auto dash = Parse({"-"});
  ASSERT_TRUE(dash.has_value());
  EXPECT_EQ(dash->json_path, "-");
}

TEST(JsonWriterTest, BlockAndInlineNest) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject()
      .Field("mode", "smoke")
      .Field("n", size_t{3})
      .Key("row")
      .BeginObject(JsonWriter::kInline)
      .Field("a", uint64_t{1})
      .Key("nested")
      .BeginObject()  // inside an inline container: inline too
      .Field("b", true)
      .Field("c", false)
      .End()
      .Key("list")
      .Array(std::vector<uint32_t>{1, 2, 3})
      .End()
      .Key("rows")
      .BeginArray();
  json.BeginObject(JsonWriter::kInline).Field("x", -1).End();
  json.Value("s");
  json.End()
      .Key("section")
      .BeginObject()
      .Field("inner", "v")
      .Key("deep")
      .BeginObject()
      .Field("k", 7)
      .End()
      .End()
      .End();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"mode\": \"smoke\",\n"
            "  \"n\": 3,\n"
            "  \"row\": {\"a\": 1, \"nested\": {\"b\": true, \"c\": false}, "
            "\"list\": [1, 2, 3]},\n"
            "  \"rows\": [\n"
            "    {\"x\": -1},\n"
            "    \"s\"\n"
            "  ],\n"
            "  \"section\": {\n"
            "    \"inner\": \"v\",\n"
            "    \"deep\": {\n"
            "      \"k\": 7\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST(JsonWriterTest, EmptyContainers) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject()
      .Key("block")
      .BeginArray()
      .End()
      .Key("inline")
      .BeginObject(JsonWriter::kInline)
      .End()
      .Key("none")
      .Array(std::vector<size_t>{})
      .End();
  EXPECT_EQ(out.str(),
            "{\n  \"block\": [],\n  \"inline\": {},\n  \"none\": []\n}\n");
}

TEST(JsonWriterTest, PerValuePrecision) {
  std::ostringstream out;
  JsonWriter json(out);
  const double v = 1234.56789;
  json.BeginArray(JsonWriter::kInline)
      .Value(v, 0)
      .Value(v, 1)
      .Value(v, 2)
      .Value(v, 3)
      .Value(v, 4)
      .Value(-0.00004, 4)
      .Value(0.25, 2)
      .End();
  EXPECT_EQ(out.str(),
            "[1235, 1234.6, 1234.57, 1234.568, 1234.5679, -0.0000, 0.25]\n");
}

TEST(JsonWriterTest, TopLevelInlineObjectsFormJsonl) {
  std::ostringstream out;
  JsonWriter json(out);
  for (uint64_t ts : {100u, 200u}) {
    json.BeginObject(JsonWriter::kInline)
        .Field("ts_ns", ts)
        .Key("v")
        .BeginArray()
        .Value(0.5, 1)
        .End()
        .End();
  }
  EXPECT_EQ(out.str(),
            "{\"ts_ns\": 100, \"v\": [0.5]}\n"
            "{\"ts_ns\": 200, \"v\": [0.5]}\n");
}

TEST(WriteOutputFileTest, WritesAndReportsSuccess) {
  const std::string path = ::testing::TempDir() + "bench_util_test_ok.json";
  EXPECT_TRUE(bench::WriteOutputFile(path, [](std::ostream& out) {
    JsonWriter(out).BeginObject().Field("ok", true).End();
  }));
  std::ifstream in(path);
  std::stringstream read;
  read << in.rdbuf();
  EXPECT_EQ(read.str(), "{\n  \"ok\": true\n}\n");
  std::remove(path.c_str());
}

TEST(WriteOutputFileTest, ReportsUnopenableFile) {
  bool called = false;
  EXPECT_FALSE(bench::WriteOutputFile(
      "/nonexistent-dir/x.json", [&](std::ostream&) { called = true; }));
  EXPECT_FALSE(called);
}

TEST(WriteOutputFileTest, ReportsFailedWrite) {
  // /dev/full accepts the open and fails every write with ENOSPC; the
  // failure surfaces when the buffered document is flushed on close.
  if (!std::ifstream("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  EXPECT_FALSE(bench::WriteOutputFile("/dev/full", [](std::ostream& out) {
    JsonWriter(out).BeginObject().Field("k", 1).End();
  }));
}

}  // namespace
}  // namespace leap
