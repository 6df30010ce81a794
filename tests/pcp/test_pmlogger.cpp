// Tests for the pmlogger-style archive recorder.
#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hpp"
#include "pcp/pmlogger.hpp"
#include "pcp/pmcd.hpp"

namespace papisim::pcp {
namespace {

using sim::Machine;
using sim::MachineConfig;
using sim::MemDir;

struct LoggerFixture : ::testing::Test {
  LoggerFixture()
      : machine(MachineConfig::summit()),
        daemon(machine),
        client(daemon, machine, machine.user_credentials()) {
    machine.set_noise_enabled(false);
  }
  Machine machine;
  Pmcd daemon;
  PcpClient client;
};

const std::vector<std::string> kMetrics = {
    "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES",
    "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES",
};

TEST_F(LoggerFixture, RecordsTimestampedSnapshots) {
  PmLogger logger(client, kMetrics, 87);
  logger.poll();
  machine.memctrl(0).add_line(0, MemDir::Read);
  machine.advance(1e9);
  logger.poll();
  ASSERT_EQ(logger.records(), 2u);
  const Archive& ar = logger.archive();
  EXPECT_EQ(ar.records[0].values[0], 0u);
  EXPECT_EQ(ar.records[1].values[0], 64u);
  EXPECT_GT(ar.records[1].t_sec, ar.records[0].t_sec);
  EXPECT_EQ(ar.cpu, 87u);
}

TEST_F(LoggerFixture, EachPollPaysOneRoundTrip) {
  PmLogger logger(client, kMetrics, 87);  // ctor: 2 lookups
  const std::uint64_t before = client.round_trips();
  logger.poll();
  logger.poll();
  EXPECT_EQ(client.round_trips(), before + 2);
}

TEST_F(LoggerFixture, UnknownMetricRejectedAtConstruction) {
  EXPECT_THROW(PmLogger(client, {"no.such.metric"}, 0), std::runtime_error);
}

TEST_F(LoggerFixture, ArchiveSaveLoadRoundTrips) {
  PmLogger logger(client, kMetrics, 87);
  logger.poll();
  machine.memctrl(0).add_line(0, MemDir::Read);
  machine.memctrl(0).add_line(0, MemDir::Write);
  machine.advance(5e8);
  logger.poll();

  std::stringstream ss;
  logger.archive().save(ss);
  const Archive loaded = Archive::load(ss);
  EXPECT_EQ(loaded.metrics, logger.archive().metrics);
  EXPECT_EQ(loaded.cpu, 87u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[1].values, logger.archive().records[1].values);
  EXPECT_NEAR(loaded.records[1].t_sec, logger.archive().records[1].t_sec, 1e-12);
}

TEST_F(LoggerFixture, LoadRejectsCorruptArchives) {
  {
    std::stringstream ss("garbage\n");
    EXPECT_THROW(Archive::load(ss), std::runtime_error);
  }
  {
    std::stringstream ss("# papisim-archive v1\nmetric a.b\nrecord 0.5 1 2\n");
    EXPECT_THROW(Archive::load(ss), std::runtime_error);  // width mismatch
  }
  {
    std::stringstream ss("# papisim-archive v1\nbogus line\n");
    EXPECT_THROW(Archive::load(ss), std::runtime_error);
  }
}

TEST_F(LoggerFixture, LoadToleratesCrlfAndTrailingWhitespace) {
  std::stringstream ss(
      "# papisim-archive v1\r\n"
      "cpu 87 \r\n"
      "metric a.b\t\r\n"
      "metric c.d\r\n"
      "record 0.5 1 2   \r\n"
      "record 1.5 3 4\r\n");
  const Archive ar = Archive::load(ss);
  EXPECT_EQ(ar.cpu, 87u);
  ASSERT_EQ(ar.metrics.size(), 2u);
  ASSERT_EQ(ar.records.size(), 2u);
  EXPECT_EQ(ar.records[0].values, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ar.records[1].values, (std::vector<std::uint64_t>{3, 4}));
}

TEST_F(LoggerFixture, MalformedArchivesThrowTypedInternalErrors) {
  auto expect_internal = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      Archive::load(ss);
      FAIL() << "expected Error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::Internal) << text;
      EXPECT_NE(std::string(e.what()).find("Archive::load"), std::string::npos);
    }
  };
  expect_internal("");                                           // empty stream
  expect_internal("# papisim-archive v2\n");                     // bad header
  expect_internal("# papisim-archive v1\ncpu x\n");              // bad cpu
  expect_internal("# papisim-archive v1\nmetric\n");             // nameless
  expect_internal("# papisim-archive v1\nmetric a.b\nrecord oops 1\n");
  expect_internal("# papisim-archive v1\nmetric a.b\nrecord 0.5 12junk\n");
  expect_internal("# papisim-archive v1\nmetric a.b\nrecord 0.5 1 2\n");
}

TEST_F(LoggerFixture, LoadRejectsTruncatedRecords) {
  auto expect_internal = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      Archive::load(ss);
      FAIL() << "expected Error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::Internal) << text;
    }
  };
  const std::string head =
      "# papisim-archive v1\ncpu 0\nmetric a.b\nmetric c.d\nmetric e.f\n";
  // A record cut off mid-values (writer died between columns) must not load
  // as a short row -- the width check has to fire on too FEW values too.
  expect_internal(head + "record 0.5 1 2\n");
  expect_internal(head + "record 0.5 1\n");
  expect_internal(head + "record 0.5\n");
  // Truncated mid-token: the partial value parses, the width check fires.
  expect_internal(head + "record 0.5 1 2 3\nrecord 1.5 4 5");
}

TEST_F(LoggerFixture, LoadRejectsInvalidUtf8MetricNames) {
  auto expect_internal = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      Archive::load(ss);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::Internal);
      EXPECT_NE(std::string(e.what()).find("UTF-8"), std::string::npos);
    }
  };
  const std::string head = "# papisim-archive v1\n";
  expect_internal(head + "metric mem.\xFF\x41.reads\n");   // lone 0xFF lead
  expect_internal(head + "metric mem.\xC3(\n");            // broken 2-byte seq
  expect_internal(head + "metric mem.\xE2\x82\n");         // truncated 3-byte
  expect_internal(head + "metric \xC0\xAF\n");             // overlong slash
  expect_internal(head + "metric \xED\xA0\x80.x\n");       // UTF-16 surrogate

  // Well-formed multibyte names are fine (the check is UTF-8 validity, not
  // an ASCII whitelist).
  std::stringstream ok(head + "metric mem.b\xC3\xA9ta.reads\n");
  EXPECT_EQ(Archive::load(ok).metrics.size(), 1u);
}

TEST_F(LoggerFixture, LoadRejectsEmptyAndCrlfOnlyFiles) {
  for (const std::string& text : {std::string(""), std::string("\r\n"),
                                  std::string("\r\n\r\n\r\n")}) {
    std::stringstream ss(text);
    try {
      Archive::load(ss);
      FAIL() << "expected Error for " << text.size() << "-byte file";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::Internal);
    }
  }
  // A CRLF-terminated but otherwise intact archive still loads (CRLF is a
  // transport artifact, not corruption).
  std::stringstream ok("# papisim-archive v1\r\ncpu 3\r\n");
  EXPECT_EQ(Archive::load(ok).cpu, 3u);
}

TEST_F(LoggerFixture, CountersInArchiveAreMonotonic) {
  PmLogger logger(client, kMetrics, 87);
  for (int i = 0; i < 10; ++i) {
    machine.memctrl(0).add_line(static_cast<std::uint64_t>(i), MemDir::Read);
    logger.poll();
  }
  const Archive& ar = logger.archive();
  for (std::size_t i = 1; i < ar.records.size(); ++i) {
    EXPECT_GE(ar.records[i].values[0], ar.records[i - 1].values[0]);
  }
}

}  // namespace
}  // namespace papisim::pcp
