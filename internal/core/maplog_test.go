package core

import (
	"bytes"
	"reflect"
	"testing"

	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// replayLogged replays recs on a fresh controller logging dirty
// translations to w, and returns the controller.
func replayLogged(t *testing.T, recs []trace.Record, w interface {
	Write([]byte) (int, error)
}) *CRAID {
	t.Helper()
	eng := sim.NewEngine()
	c, _ := newReplayCRAID(eng, 64)
	c.SetMappingLog(w)
	if _, _, err := ReplayWith(eng, c, trace.NewSlice(recs), ReplayConfig{BatchSize: 200}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLogRingReplayRecovery is the end-to-end batched-flush property: a
// mapping log written through mapcache.LogRing during a replay is
// byte-identical to the synchronous log, and a crash cut at an
// arbitrary byte of either recovers the same mappings into a fresh
// controller. The small cache forces heavy eviction churn, so the log
// carries all three record kinds.
func TestLogRingReplayRecovery(t *testing.T) {
	recs := randomWorkload(31, 3000, 12000)

	var syncLog bytes.Buffer
	replayLogged(t, recs, &syncLog)

	var ringLog bytes.Buffer
	ring := mapcache.NewLogRing(&ringLog, 512, 3)
	replayLogged(t, recs, ring)
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(syncLog.Bytes(), ringLog.Bytes()) {
		t.Fatalf("ring log diverged from synchronous log (%d vs %d bytes)", ringLog.Len(), syncLog.Len())
	}
	if st := ring.Stats(); st.Records == 0 || st.Flushes == 0 {
		t.Fatalf("log ring never used: %+v", st)
	}

	total := syncLog.Len()
	for _, cut := range []int{0, 17, total / 2, total/2 + 9, total - 1, total} {
		recover := func(log []byte) (int, []mapcache.Mapping) {
			eng := sim.NewEngine()
			c, _ := newReplayCRAID(eng, 64)
			n, err := c.Recover(bytes.NewReader(log))
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			return n, c.table.DirtyMappings()
		}
		nSync, dirtySync := recover(syncLog.Bytes()[:cut])
		nRing, dirtyRing := recover(ringLog.Bytes()[:cut])
		if nSync != nRing || !reflect.DeepEqual(dirtySync, dirtyRing) {
			t.Errorf("cut %d: recovered %d/%d mappings, dirty sets diverged", cut, nRing, nSync)
		}
	}
}

// countingSyncLog is a log sink with an fsync hook.
type countingSyncLog struct {
	bytes.Buffer
	syncs int
}

func (w *countingSyncLog) Sync() error { w.syncs++; return nil }

// TestMapLogSyncKnob is the Config.MapLogSync crash-recovery test at
// both settings: SetMappingLog arms fsync-on-flush on the ring exactly
// when the config asks for it, the writer then syncs once per flushed
// buffer, and the recovery byte stream — and the mappings a fresh
// controller recovers from it — is identical at both settings.
func TestMapLogSyncKnob(t *testing.T) {
	recs := randomWorkload(13, 3000, 8000)
	var logs [2][]byte
	for i, syncOn := range []bool{false, true} {
		eng := sim.NewEngine()
		arr := nullArray(eng, 4, 100000)
		disks := []int{0, 1, 2, 3}
		paLayout := raid.NewRAID5(4, 4, 4096, 4)
		c := mustCRAID(arr, Config{
			Policy:       "WLRU",
			CachePerDisk: 64,
			ParityGroup:  4,
			StripeUnit:   4,
			MapLogSync:   syncOn,
		}, true, disks, 0, paLayout, disks, 64)
		var sink countingSyncLog
		ring := mapcache.NewLogRing(&sink, 512, 3)
		c.SetMappingLog(ring)
		if _, _, err := ReplayWith(eng, c, trace.NewSlice(recs), ReplayConfig{BatchSize: 200}); err != nil {
			t.Fatal(err)
		}
		if err := ring.Close(); err != nil {
			t.Fatal(err)
		}
		st := ring.Stats()
		if syncOn && (sink.syncs == 0 || st.Syncs != int64(sink.syncs)) {
			t.Fatalf("MapLogSync on: %d fsyncs observed, stats say %d", sink.syncs, st.Syncs)
		}
		if !syncOn && (sink.syncs != 0 || st.Syncs != 0) {
			t.Fatalf("MapLogSync off: log was fsynced %d times", sink.syncs)
		}
		logs[i] = sink.Bytes()
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("log streams diverged across MapLogSync settings (%d vs %d bytes)", len(logs[0]), len(logs[1]))
	}
	// Crash recovery from the synced log is the same as from the
	// unsynced one at any cut — the knob changes durability, not bytes.
	for _, cut := range []int{0, len(logs[0]) / 2, len(logs[0])} {
		a, err := mapcache.Recover(bytes.NewReader(logs[0][:cut]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapcache.Recover(bytes.NewReader(logs[1][:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cut %d: recovery diverged across MapLogSync settings", cut)
		}
	}
}
