package main

import (
	"fmt"

	"craid/internal/core"
	"craid/internal/experiments"
	"craid/internal/sim"
)

// fingerprint renders a replay's simulated outputs exactly: request
// count, monitor counters, read/write mean and p99 response times, and
// the fault fabric's counters. %#v prints simulated times as integers.
func fingerprint(n int64, st core.Stats, readMean, readP99, writeMean, writeP99 sim.Time, fs *core.FaultStats) string {
	s := fmt.Sprintf("requests=%d stats=%#v read=%d/%d write=%d/%d",
		n, st, int64(readMean), int64(readP99), int64(writeMean), int64(writeP99))
	if fs != nil {
		s += fmt.Sprintf(" fault=%#v", *fs)
	}
	return s
}

// referenceFingerprint replays c through experiments.Run on the same
// bytes: a mismatch means the benchmark's volume assembly drifted from
// the one the experiment tables use.
func referenceFingerprint(c *cell) (string, error) {
	res, err := experiments.Run(c.runConfig())
	if err != nil {
		return "", fmt.Errorf("reference %s/%s: %w", c.preset, c.policy, err)
	}
	return fingerprint(res.Requests, *res.CRAID, res.ReadMean, res.ReadP99, res.WriteMean, res.WriteP99, res.Fault), nil
}

// checkFaultUpgrade enforces the fault-upgrade workload's outcome: one
// disk death, one crash survived with mappings recovered, one online
// upgrade, and nothing lost.
func checkFaultUpgrade(fs *core.FaultStats) error {
	if fs == nil {
		return fmt.Errorf("fault-upgrade: no fault plan installed")
	}
	if fs.Failures != 1 || fs.Restarts != 1 || fs.Upgrades != 1 || fs.LostExtents != 0 ||
		fs.RebuildLostRows != 0 || fs.RecoveredMappings <= 0 {
		return fmt.Errorf("fault-upgrade: want Failures=1 Restarts=1 Upgrades=1 LostExtents=0 RebuildLostRows=0 RecoveredMappings>0, got %d %d %d %d %d %d",
			fs.Failures, fs.Restarts, fs.Upgrades, fs.LostExtents, fs.RebuildLostRows, fs.RecoveredMappings)
	}
	return nil
}
