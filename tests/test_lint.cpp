// Self-tests for tools/remspan_lint.cpp: every fixture under
// tests/lint_fixtures/ carries exactly one known contract violation (or a
// suppression case), and the tool must report the right rule id with the
// right exit code. The binary is driven as a child process — exactly how
// the lint.tree_clean ctest and the CI lint job drive it — so the exit
// codes and the `path:line: [Rn name] message` output format are part of
// the tested contract.
//
// Paths come in as compile definitions: REMSPAN_LINT_BIN (the built tool),
// REMSPAN_LINT_FIXTURES (tests/lint_fixtures), REMSPAN_LINT_ROOT (the
// source tree).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string cmd = std::string(REMSPAN_LINT_BIN) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, got);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

LintRun run_on_fixture(const std::string& fixture) {
  return run_lint("--root " REMSPAN_LINT_ROOT " " REMSPAN_LINT_FIXTURES "/" + fixture);
}

TEST(LintTool, ListRulesNamesEveryRule) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* id : {"R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"}) {
    EXPECT_NE(run.output.find(id), std::string::npos) << "missing " << id << " in:\n"
                                                      << run.output;
  }
}

TEST(LintTool, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_lint("--bogus").exit_code, 2);
}

TEST(LintTool, MissingFileIsIoError) {
  EXPECT_EQ(run_on_fixture("does_not_exist.cpp").exit_code, 2);
}

TEST(LintTool, CleanFixturePasses) {
  const LintRun run = run_on_fixture("clean.cpp");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos) << run.output;
}

// Each known-violation fixture must trip exactly its rule. The treat-as
// directive inside the fixture maps it onto the path the rule is scoped
// to, so the diagnostic reports that path.
struct FixtureCase {
  const char* fixture;
  const char* expect;  // substring of the diagnostic: "[<id> <name>]"
};

class LintFixture : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixture, ReportsItsRuleAndExitsNonzero) {
  const FixtureCase& c = GetParam();
  const LintRun run = run_on_fixture(c.fixture);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(c.expect), std::string::npos)
      << c.fixture << " did not report " << c.expect << ":\n"
      << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    KnownViolations, LintFixture,
    ::testing::Values(
        FixtureCase{"r1_missing_wall.cpp", "[R1 c-abi-exception-wall]"},
        FixtureCase{"r2_raw_parse.cpp", "[R2 strict-number-parsing]"},
        FixtureCase{"r3_exit.cpp", "[R3 no-exit]"},
        FixtureCase{"r4_assert.cpp", "[R4 no-assert]"},
        FixtureCase{"r5_random_device.cpp", "[R5 determinism]"},
        FixtureCase{"r6_unordered_iteration.cpp", "[R6 unordered-iteration-annotation]"},
        FixtureCase{"r7_raw_clock.cpp", "[R7 wall-clock-discipline]"}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name = info.param.fixture;
      return name.substr(0, name.find('.'));
    });

// R6's scope also covers src/geom/; this fixture maps itself there. It is
// a plain TEST rather than a KnownViolations case: ctest names those cases
// with their parameter's raw bytes (string-literal addresses), so a new
// literal in that list shifts the others and renames existing tests.
TEST(LintTool, GeomUnorderedIterationFixtureTripsR6) {
  const LintRun run = run_on_fixture("r6_geom_unordered_iteration.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[R6 unordered-iteration-annotation]"), std::string::npos)
      << run.output;
}

// R2's stream-extraction half is scoped to src/ outside util/; like the
// geom R6 fixture, it is a plain TEST so the parameterised names stay put.
TEST(LintTool, StreamExtractionFixtureTripsR2) {
  const LintRun run = run_on_fixture("r2_stream_extraction.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[R2 strict-number-parsing]"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("stream extraction from 'in'"), std::string::npos) << run.output;
}

TEST(LintTool, JustifiedAllowSuppresses) {
  const LintRun run = run_on_fixture("r6_suppressed.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos) << run.output;
}

TEST(LintTool, BareAllowIsR0AndDoesNotSuppress) {
  const LintRun run = run_on_fixture("r0_missing_justification.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The malformed annotation is flagged...
  EXPECT_NE(run.output.find("[R0 annotation-grammar]"), std::string::npos) << run.output;
  // ...and the underlying finding still surfaces.
  EXPECT_NE(run.output.find("[R6 unordered-iteration-annotation]"), std::string::npos)
      << run.output;
}

TEST(LintTool, TreeIsClean) {
  // Redundant with the lint.tree_clean ctest on purpose: a failure here
  // points at the working tree, not at the tool.
  const LintRun run = run_lint("--root " REMSPAN_LINT_ROOT);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
