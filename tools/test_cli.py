#!/usr/bin/env python3
"""End-to-end checks of the cohmeleon_run command line.

Flags are spec keys: `--KEY VALUE` sets the same key a .scenario,
.serve or .campaign file sets, through the same parser. These tests
hold the CLI to that: a key given as a flag and the same key given in
a file produce the same bytes, and a malformed flag value fails with
exit code 2 and one stderr line naming the flag.

Usage: test_cli.py PATH/TO/cohmeleon_run
"""

import os
import subprocess
import sys
import tempfile
import unittest

CLI = None


def run(*args, cwd, check=True):
    proc = subprocess.run([CLI, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class CliTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="cli_test_")
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self.dir, name)

    def test_run_scenario_file_matches_flags(self):
        write(self.path("cell.scenario"),
              "soc = soc1\npolicy = cohmeleon\ntrain-app = dense\n"
              "train = 5\nseed = 3033\nagent-seed = 11\n")
        from_file = run("run", "--scenario", "cell.scenario",
                        "--train", "2", cwd=self.dir)
        # Without a scenario file, run trains on dense apps.
        from_flags = run("run", "--soc", "soc1", "--policy", "cohmeleon",
                         "--train", "2", "--seed", "3033",
                         "--agent-seed", "11", cwd=self.dir)
        self.assertEqual(from_file.stdout, from_flags.stdout)
        self.assertIn("trained cohmeleon online: 2 iterations",
                      from_file.stdout)

    def test_serve_spec_file_matches_flags(self):
        write(self.path("s.serve"),
              "soc = soc0\nrequests = 24\nswap-interval = 8\n"
              "train = 1\nshards = 2\ntenants = random, fig5\n"
              "tenant-weights = 2, 1\nthreads = 1\n")
        run("serve", "--spec", "s.serve", "--threads", "4",
            "--decision-log", "file.log", "--save-state", "file.state",
            cwd=self.dir)
        run("serve", "--soc", "soc0", "--requests", "24",
            "--swap-interval", "8", "--train", "1", "--shards", "2",
            "--tenant-weights", "2,1", "--tenants", "random,fig5",
            "--threads", "4", "--decision-log", "flags.log",
            "--save-state", "flags.state", cwd=self.dir)
        self.assertEqual(read_bytes(self.path("file.log")),
                         read_bytes(self.path("flags.log")))
        self.assertEqual(read_bytes(self.path("file.state")),
                         read_bytes(self.path("flags.state")))

    def test_campaign_flags_match_campaign_keys(self):
        base = run("campaign", "faulty", "--print", cwd=self.dir).stdout
        lines = [l for l in base.splitlines(keepends=True)
                 if not l.startswith(("fault =", "max-retries ="))]
        write(self.path("plain.campaign"), "".join(lines))
        write(self.path("keyed.campaign"),
              "fault = fail@1:1\nmax-retries = 1\n" + "".join(lines))
        run("campaign", "plain.campaign", "--max-retries", "1",
            "--fault", "fail@1:1", "--jobs", "1", "-o", "flags.json",
            cwd=self.dir)
        run("campaign", "keyed.campaign", "--jobs", "1", "-o",
            "keys.json", cwd=self.dir)
        flags = read_bytes(self.path("flags.json"))
        self.assertEqual(flags, read_bytes(self.path("keys.json")))
        # The flag really overrode the file: one retry recovered the
        # failing cell on its second attempt.
        self.assertIn(b'"cell1.attempts": 2', flags)
        self.assertNotIn(b'"failed"', flags)

    def test_run_sharded_checkpoint_matches_train(self):
        run("run", "--soc", "soc1", "--train", "3", "--shards", "3",
            "--save-model", "A.ckpt", cwd=self.dir)
        run("train", "--soc", "soc1", "--train", "3", "--shards", "3",
            "-o", "B.ckpt", cwd=self.dir)
        self.assertEqual(read_bytes(self.path("A.ckpt")),
                         read_bytes(self.path("B.ckpt")))

    def test_malformed_flag_values_fail_with_one_line(self):
        cases = [
            ("run", "--soc", "nope"),
            ("run", "--policy", "bogus"),
            ("run", "--train", "many"),
            ("run", "--train", "2000000"),
            ("run", "--shards", "4294967295"),
            ("run", "--merge", "bogus"),
            ("run", "--explore", "floor@2"),
            ("run", "--model", "perceptron:tables=0"),
            ("run", "--seed", "-1"),
            ("run", "--disable-modes", "non-coh-dma"),
            ("run", "--soc"),
            ("train", "--shards", "4x", "-o", "x.ckpt"),
            ("train", "--jobs", "many", "-o", "x.ckpt"),
            ("compare", "--train", "1e3"),
            ("serve", "--requests", "18446744073709551615"),
            ("serve", "--threads", "0"),
            ("serve", "--arrival-rate", "-1"),
            ("serve", "--tenants", "nosuch"),
            ("serve", "--tenant-weights", "1,-1"),
            ("campaign", "smoke", "--max-retries", "5000"),
            ("campaign", "smoke", "--fault", "bogus@1"),
            ("campaign", "smoke", "--workers", "0"),
            ("campaign", "smoke", "--lease-ttl", "0"),
            ("campaign", "smoke", "--cell-timeout", "soon"),
            ("campaign", "smoke", "--respawn-budget", "x"),
        ]
        for case in cases:
            with self.subTest(case=" ".join(case)):
                proc = run(*case, cwd=self.dir, check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                lines = proc.stderr.splitlines()
                self.assertEqual(len(lines), 1, proc.stderr)
                flag = next(a for a in reversed(case[:3])
                            if a.startswith("--"))
                self.assertIn(flag, lines[0])
                self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    CLI = os.path.abspath(sys.argv.pop(1))
    unittest.main()
