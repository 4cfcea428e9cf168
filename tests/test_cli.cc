/**
 * @file
 * End-to-end checks of the icfp-sim command line, run against the built
 * binary (ICFP_SIM_BINARY, set by CMake): an option a verb does not read
 * is refused with exit 1 rather than ignored, bad values are refused at
 * parse time rather than by a crash, and a cheap run of each verb family
 * still exits 0.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/report.hh"

namespace {

namespace fs = std::filesystem;

using Args = std::vector<std::string>;

/** How one icfp-sim process ended. */
struct Outcome
{
    bool exited = false; ///< false: killed by a signal
    int code = -1;       ///< exit status, or the signal number
    std::string err;     ///< everything it wrote to stderr

    /** gtest-printable summary for failure messages. */
    std::string
    str() const
    {
        return (exited ? "exit " : "signal ") + std::to_string(code) +
               "; stderr: " + err;
    }
};

std::string
readAll(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

class CliTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "icfp_cli_XXXXXX").string();
        ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
    }

    static void
    TearDownTestSuite()
    {
        fs::remove_all(dir_);
    }

    /** Start icfp-sim @p args in the scratch dir; stderr to @p err,
     *  stdout to @p out. */
    static pid_t
    spawn(const Args &args, const fs::path &err,
          const fs::path &out = "/dev/null")
    {
        const pid_t pid = fork();
        if (pid != 0)
            return pid;
        // Child: only async-signal-safe calls until execv.
        if (chdir(dir_.c_str()) != 0)
            _exit(126);
        const int out_fd =
            open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int err_fd =
            open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out_fd < 0 || err_fd < 0)
            _exit(126);
        dup2(out_fd, STDOUT_FILENO);
        dup2(err_fd, STDERR_FILENO);
        std::vector<char *> argv{const_cast<char *>(ICFP_SIM_BINARY)};
        for (const std::string &arg : args)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        execv(ICFP_SIM_BINARY, argv.data());
        _exit(127);
    }

    static Outcome
    reap(pid_t pid, const fs::path &err)
    {
        int status = 0;
        EXPECT_EQ(waitpid(pid, &status, 0), pid);
        Outcome outcome;
        outcome.exited = WIFEXITED(status);
        outcome.code =
            outcome.exited ? WEXITSTATUS(status) : WTERMSIG(status);
        outcome.err = readAll(err);
        return outcome;
    }

    /** Run icfp-sim @p args to completion, stdout to @p out. */
    static Outcome
    run(const Args &args, const fs::path &out = "/dev/null")
    {
        const fs::path err = fs::path(dir_) / "stderr.txt";
        return reap(spawn(args, err, out), err);
    }

    /** Expect @p args to exit 1 with @p token in its stderr. */
    static void
    expectRefused(const Args &args, const std::string &token)
    {
        std::string line = "icfp-sim";
        for (const std::string &arg : args)
            line += " " + arg;
        const Outcome outcome = run(args);
        EXPECT_TRUE(outcome.exited && outcome.code == 1)
            << line << ": " << outcome.str();
        EXPECT_NE(outcome.err.find(token), std::string::npos)
            << line << ": wanted '" << token << "' in: " << outcome.err;
    }

    static void
    expectAccepted(const Args &args)
    {
        const Outcome outcome = run(args);
        EXPECT_TRUE(outcome.exited && outcome.code == 0)
            << args.front() << ": " << outcome.str();
    }

    static inline std::string dir_;
};

/** A socket path nothing listens on: a refusal must come before any
 *  connection attempt, so the stderr token tells the two apart. */
const std::string kNoSocket = "absent.sock";

TEST_F(CliTest, RefusesOptionsItsVerbWouldIgnore)
{
    // Each of these used to exit 0 while ignoring the option.
    const std::vector<std::pair<Args, std::string>> cases = {
        {{"sweep", "--bench", "mcf", "--insts", "200"}, "--bench"},
        {{"submit", "--socket", kNoSocket, "--bench", "mcf"}, "--bench"},
        {{"submit", "--socket", kNoSocket, "--core", "icfp"}, "--core"},
        {{"perf", "--l2-lat", "30", "--insts", "200"}, "--l2-lat"},
        {{"version", "--insts", "5"}, "--insts"},
        {{"run", "--jobs", "4", "--insts", "200"}, "--jobs"},
        {{"compare", "--benches", "gzip", "--insts", "200"}, "--benches"},
        {{"perf", "--seed", "3", "--insts", "200"}, "--seed"},
        {{"suite", "--bench", "mcf", "--insts", "200"}, "--bench"},
        {{"disasm", "--l2-lat", "30", "--insts", "200"}, "--l2-lat"},
        {{"trace", "--load-trace", "t.trc", "--save-trace", "u.trc"},
         "--load-trace"},
        {{"ping", "--socket", kNoSocket, "--load-trace", "t.trc"},
         "--load-trace"},
        // A figure fixes its own configs.
        {{"figure", "fig8_store_buffer", "--l2-lat", "30"}, "--l2-lat"},
    };
    for (const auto &[args, option] : cases)
        expectRefused(args, args.front() + ": " + option +
                                " is not accepted (accepted by: ");
}

TEST_F(CliTest, KeepsEveryEarlierRefusal)
{
    const std::string s = kNoSocket;
    const std::vector<std::pair<Args, std::string>> cases = {
        // Options that only some verbs read.
        {{"run", "--shard", "1/2"}, "--shard"},
        {{"run", "--suite", "nonspec"}, "--suite"},
        {{"run", "--socket", s}, "--socket"},
        {{"sweep", "--wait"}, "--wait"},
        {{"ping", "--socket", s, "--job", "1"}, "--job"},
        {{"submit", "--socket", s, "--queue-depth", "4"}, "--queue-depth"},
        {{"submit", "--socket", s, "--peers", "a:1"}, "--peers"},
        {{"ping", "--socket", s, "--listen-tcp", "h:1"}, "--listen-tcp"},
        {{"submit", "--socket", s, "--slice-deadline-sec", "1"},
         "--slice-deadline-sec"},
        {{"submit", "--socket", s, "--json"}, "--json"},
        {{"submit", "--socket", s, "--job-trace-dir", "jt"},
         "--job-trace-dir"},
        {{"status", "--socket", s, "--trace"}, "--trace"},
        {{"submit", "--socket", s, "--cache-dir", "c"}, "--cache-dir"},
        {{"status", "--socket", s, "--deadline-sec", "1"}, "--deadline-sec"},
        {{"serve", "--socket", s, "--timeout", "1"}, "--timeout"},
        {{"run", "--retries", "1"}, "--retries"},
        {{"ping", "--socket", s, "--insts", "5"}, "--insts"},
        {{"serve", "--socket", s, "--benches", "mcf"}, "--benches"},
        {{"status", "--socket", s, "--cores", "icfp"}, "--cores"},
        {{"cancel", "--socket", s, "--job", "1", "--seed", "1"}, "--seed"},
        {{"status", "--socket", s, "--format", "csv"}, "--format"},
        {{"ping", "--socket", s, "--out", "o"}, "--out"},
        {{"submit", "--socket", s, "--jobs", "2"}, "parallelism"},
        {{"submit", "--socket", s, "--l2-lat", "30"}, "config overrides"},
        {{"serve", "--socket", s, "--blocking-rally"}, "config overrides"},
        {{"merge", "--format", "csv", "a.csv"}, "--format"},
        {{"merge", "--insts", "5", "a.csv"}, "--insts"},
        {{"merge", "--jobs", "2", "a.csv"}, "--jobs"},
        {{"sweep", "--load-trace", "t.trc"}, "--load-trace"},
        {{"suite", "--save-trace", "t.trc"}, "--save-trace"},
        {{"submit", "--socket", s, "--save-trace", "t.trc"}, "--save-trace"},
        // Option pairs a verb reads one at a time: together, one would be
        // ignored. Refused before any work (no file is loaded or made).
        {{"run", "--load-trace", "g.trc", "--seed", "7"},
         "run: --seed cannot be used with --load-trace"},
        {{"run", "--load-trace", "g.trc", "--save-trace", "x.trc"},
         "run: --save-trace cannot be used with --load-trace"},
        {{"run", "--load-trace", "g.trc", "--insts", "5"},
         "run: --insts cannot be used with --load-trace"},
        {{"compare", "--load-trace", "g.trc", "--insts", "5"},
         "compare: --insts cannot be used with --load-trace"},
        {{"compare", "--load-trace", "g.trc", "--seed", "7"},
         "compare: --seed cannot be used with --load-trace"},
        {{"disasm", "--load-trace", "g.trc", "--insts", "5"},
         "disasm: --insts cannot be used with --load-trace"},
        {{"disasm", "--load-trace", "g.trc", "--save-trace", "x.trc"},
         "disasm: --save-trace cannot be used with --load-trace"},
        {{"run", "--load-trace", "g.trc", "--bench", "mcf"},
         "run: --bench cannot be used with --load-trace"},
        {{"disasm", "--load-trace", "g.trc", "--bench", "mcf"},
         "disasm: --bench cannot be used with --load-trace"},
        {{"submit", "--socket", s, "--out", "never.csv"},
         "submit: --out needs --wait"},
        // Required options and operands.
        {{"ping"}, "requires --socket"},
        {{"result", "--socket", s}, "requires --job"},
        {{"cancel", "--socket", s}, "requires --job"},
        {{"trace"}, "requires --save-trace"},
        {{"merge"}, "give the shard artifact files"},
        {{"run", "extra"}, "unexpected argument 'extra'"},
        // Values.
        {{"list", "--suite", "nosuch"}, "unknown suite 'nosuch'"},
        {{"sweep", "--format", "xml"}, "--format"},
        {{"sweep", "--shard", "1/2"}, "--shard emits a mergeable artifact"},
        {{"sweep", "--shard", "3/2", "--format", "csv"}, "bad --shard"},
        {{"submit", "--socket", s, "--format", "table"}, "csv or json"},
        {{"serve", "--socket", s, "--queue-depth", "0"}, "--queue-depth"},
        {{"serve", "--socket", s, "--cache-dir", ""}, "--cache-dir"},
        {{"serve", "--socket", s, "--peers", ""}, "--peers"},
        {{"serve", "--socket", s, "--listen-tcp", ""}, "--listen-tcp"},
        {{"serve", "--socket", s, "--job-trace-dir", ""}, "--job-trace-dir"},
        // The command line itself.
        {{"run", "--nope"}, "unknown option --nope"},
        // Traces are generated, or loaded from one --load-trace file.
        // The trailing bad value would stop the verb before any work
        // if the option were accepted.
        {{"run", "--trace-dir", "tr"}, "unknown option --trace-dir"},
        {{"sweep", "--trace-dir", "tr", "--insts", "0"},
         "unknown option --trace-dir"},
        {{"figure", "fig5_speedup", "--trace-dir", "tr", "--insts", "0"},
         "unknown option --trace-dir"},
        {{"serve", "--socket", s, "--trace-dir", "tr", "--queue-depth", "0"},
         "unknown option --trace-dir"},
        {{"run", "--insts"}, "missing value for --insts"},
        {{}, "usage: icfp-sim"},
        {{"nosuch"}, "usage: icfp-sim"},
    };
    for (const auto &[args, token] : cases)
        expectRefused(args, token);
    EXPECT_FALSE(fs::exists(fs::path(dir_) / "x.trc"));
    EXPECT_FALSE(fs::exists(fs::path(dir_) / "never.csv"));
}

TEST_F(CliTest, BadValuesExitOneWithoutASignal)
{
    const std::vector<Args> cases = {
        {"run", "--insts", "abc"},
        {"run", "--insts", "5x"},
        {"run", "--insts", "-1"},
        {"run", "--insts", "18446744073709551616"},
        {"run", "--insts", ""},
        {"run", "--insts", "200", "--poison-bits", "0"},
        {"run", "--insts", "200", "--poison-bits", "99"},
        {"run", "--insts", "200", "--trigger", "bogus"},
        {"run", "--insts", "200", "--trigger", "l2|any"},
        {"compare", "--insts", "200", "--jobs", "4294967296"},
        // A zero budget simulates nothing, whichever verb gets it.
        {"compare", "--bench", "mcf", "--insts", "0"},
        {"run", "--bench", "mcf", "--insts", "0"},
        {"suite", "--core", "icfp", "--insts", "0"},
        {"sweep", "--benches", "mcf", "--insts", "0"},
        {"figure", "fig5_speedup", "--insts", "0"},
    };
    for (const Args &args : cases)
        expectRefused(args, "bad " + args[args.size() - 2]);
}

TEST_F(CliTest, UsageListsEveryVerbFromTheTable)
{
    const Outcome outcome = run({});
    for (const char *verb :
         {"list", "suites", "cores", "run", "compare", "suite", "sweep",
          "merge", "perf", "figure", "trace", "disasm", "version", "serve",
          "submit", "status", "result", "cancel", "ping", "metrics"})
        EXPECT_TRUE(
            outcome.err.find(std::string("\n  ") + verb + " ") !=
                std::string::npos ||
            outcome.err.find(std::string("\n  ") + verb + "\n") !=
                std::string::npos)
            << verb;
    EXPECT_NE(outcome.err.find("trace    [--bench B] [--insts N] [--seed S] "
                               "--save-trace FILE"),
              std::string::npos)
        << outcome.err;
}

TEST_F(CliTest, CheapRunOfEachVerbFamilyExitsZero)
{
    expectAccepted({"list"});
    expectAccepted({"list", "--suite", "nonspec"});
    expectAccepted({"suites"});
    expectAccepted({"cores"});
    expectAccepted({"version"});
    expectAccepted({"run", "--bench", "mcf", "--core", "icfp", "--insts",
                    "200", "--seed", "0x10", "--poison-bits", "16",
                    "--trigger", "l2"});
    expectAccepted({"compare", "--bench", "mcf", "--insts", "200",
                    "--jobs", "0"}); // --jobs 0 is read as 1
    expectAccepted({"suite", "--core", "icfp", "--suite", "graph",
                    "--insts", "200", "--jobs", "2"});
    expectAccepted({"sweep", "--benches", "mcf,gzip", "--cores",
                    "in-order,icfp", "--insts", "200", "--format", "csv",
                    "--out", "full.csv"});
    expectAccepted({"sweep", "--benches", "mcf,gzip", "--cores",
                    "in-order,icfp", "--insts", "200", "--format", "csv",
                    "--shard", "1/1", "--out", "shard1.csv"});
    expectAccepted({"merge", "--out", "merged.csv", "shard1.csv"});
    EXPECT_EQ(readAll(fs::path(dir_) / "merged.csv"),
              readAll(fs::path(dir_) / "full.csv"));
    expectAccepted({"trace", "--bench", "gzip", "--insts", "200",
                    "--save-trace", "t.trc"});
    expectAccepted({"disasm", "--load-trace", "t.trc", "--n", "4"});
    expectAccepted({"disasm", "--bench", "gzip", "--insts", "200"});
}

TEST_F(CliTest, FigureVerbPrintsTablesOrTheirGrid)
{
    // An unknown name is refused before any work, listing the names.
    for (const Args &args :
         {Args{"figure"}, Args{"figure", "fig5_speedup", "fig9"}}) {
        expectRefused(args, "figures are: fig5_speedup fig6_l2_latency");
        expectRefused(args, " area_overheads\n");
    }
    expectRefused({"figure", "fig9"}, "unknown figure 'fig9'");

    expectAccepted({"figure", "fig8_store_buffer", "--insts", "2000",
                    "--format", "csv", "--out", "fig8.csv"});
    EXPECT_EQ(readAll(fs::path(dir_) / "fig8.csv")
                  .rfind(icfp::sweepCsvHeader() + "\n", 0),
              0u);

    // These two run parallel work outside the sweep grid.
    const Args figures = {"figure", "smt_tradeoff", "mp_safety", "--insts",
                          "2000", "--jobs"};
    for (const char *jobs : {"1", "4"}) {
        Args args = figures;
        args.push_back(jobs);
        const Outcome outcome =
            run(args, fs::path(dir_) / ("figures_j" + std::string(jobs)));
        EXPECT_TRUE(outcome.exited && outcome.code == 0) << outcome.str();
    }
    const std::string serial = readAll(fs::path(dir_) / "figures_j1");
    EXPECT_NE(serial.find("== MP safety"), std::string::npos) << serial;
    EXPECT_EQ(serial, readAll(fs::path(dir_) / "figures_j4"));
}

TEST_F(CliTest, PerfBaselineMustCoverTheSameSchemes)
{
    const Args perf = {"perf", "--benches", "gzip", "--insts", "200",
                       "--reps", "1", "--warmup", "0"};
    Args fresh = perf;
    fresh.insert(fresh.end(), {"--out", "base7.json"});
    expectAccepted(fresh);

    // A baseline over the same seven cores is a valid comparison.
    Args again = perf;
    again.insert(again.end(),
                 {"--baseline", "base7.json", "--out", "again.json"});
    expectAccepted(again);
    EXPECT_NE(readAll(fs::path(dir_) / "again.json")
                  .find("\"replay_speedup_vs_baseline\""),
              std::string::npos);

    // An artifact over the five Figure 5 schemes only (what perf wrote
    // before it timed ooo and cfp) is refused, naming both sets, and no
    // ratio is written.
    std::ofstream(fs::path(dir_) / "base5.json")
        << "{\n  \"grid\": \"fig5\",\n"
        << "  \"trace_gen\": {\"insts\": 1, \"seconds\": 1.0, "
           "\"insts_per_sec\": 1.0},\n"
        << "  \"replay\": {\"insts\": 1, \"seconds\": 1.0, "
           "\"insts_per_sec\": 1.0},\n  \"schemes\": [\n";
    for (const char *scheme :
         {"in-order", "runahead", "multipass", "sltp", "icfp"}) {
        std::ofstream(fs::path(dir_) / "base5.json", std::ios::app)
            << "    {\"scheme\": \"" << scheme << "\", \"insts\": 1},\n";
    }
    std::ofstream(fs::path(dir_) / "base5.json", std::ios::app)
        << "  ],\n  \"cases\": []\n}\n";
    Args mixed = perf;
    mixed.insert(mixed.end(),
                 {"--baseline", "base5.json", "--out", "mixed.json"});
    expectRefused(mixed, "{in-order,runahead,multipass,sltp,icfp}");
    expectRefused(mixed, "{in-order,runahead,multipass,sltp,icfp,ooo,cfp}");
    EXPECT_FALSE(fs::exists(fs::path(dir_) / "mixed.json"));
}

TEST_F(CliTest, ServiceVerbsRunAgainstALiveDaemon)
{
    const fs::path serve_err = fs::path(dir_) / "serve.txt";
    const pid_t daemon =
        spawn({"serve", "--socket", "d.sock", "--jobs", "1"}, serve_err);
    ASSERT_GT(daemon, 0);
    bool up = false;
    for (int i = 0; i < 100 && !up; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        up = run({"ping", "--socket", "d.sock"}).code == 0;
    }
    EXPECT_TRUE(up) << readAll(serve_err);
    if (up) {
        expectAccepted({"submit", "--socket", "d.sock", "--benches", "mcf",
                        "--cores", "in-order,icfp", "--insts", "200",
                        "--format", "csv", "--wait", "--timeout", "120",
                        "--out", "got.csv"});
        expectAccepted({"sweep", "--benches", "mcf", "--cores",
                        "in-order,icfp", "--insts", "200", "--format",
                        "csv", "--out", "direct.csv"});
        EXPECT_EQ(readAll(fs::path(dir_) / "got.csv"),
                  readAll(fs::path(dir_) / "direct.csv"));
        expectAccepted({"status", "--socket", "d.sock", "--job", "1",
                        "--json"});
        expectAccepted({"status", "--socket", "d.sock"});
        expectAccepted({"result", "--socket", "d.sock", "--job", "1",
                        "--out", "again.csv"});
        EXPECT_EQ(readAll(fs::path(dir_) / "again.csv"),
                  readAll(fs::path(dir_) / "direct.csv"));
        expectAccepted({"metrics", "--socket", "d.sock", "--json",
                        "--retries", "1"});
    }
    kill(daemon, SIGTERM);
    const Outcome served = reap(daemon, serve_err);
    EXPECT_TRUE(served.exited && served.code == 0) << served.str();
}

} // namespace
