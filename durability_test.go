package biorank

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"biorank/internal/wal"
)

// corruptFirstWALRecord flips one payload bit of the first record in the
// directory's first WAL segment — mid-log damage, not a torn tail.
func corruptFirstWALRecord(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (%v)", dir, err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 10 {
		t.Fatalf("segment too short: %d bytes", len(buf))
	}
	buf[9] ^= 0x04 // second payload byte of record 1
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// durableSystem builds a demo system in durable live mode over dir.
func durableSystem(t *testing.T, seed uint64, dir string, cfg DurabilityConfig) (*System, DurabilityStats) {
	t.Helper()
	s, err := NewDemoSystem(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = dir
	st, err := s.EnableLiveDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// TestDurableRecoveryScoresBitIdentical is the facade end of the
// tentpole: ingest through a durable system, restart it over the same
// directory, and require the recovered system's version, epochs and
// Monte Carlo scores to be bit-identical to the pre-restart ones.
func TestDurableRecoveryScoresBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s1, st := durableSystem(t, 5, dir, DurabilityConfig{Fsync: "always"})
	if st.Recovered {
		t.Fatal("fresh directory reported a recovery")
	}
	if st.Checkpoints != 1 {
		t.Fatalf("bootstrap wrote %d checkpoints, want 1", st.Checkpoints)
	}
	proteins := s1.Proteins()
	pA := proteins[0]
	accs := s1.Accessions(pA)
	if _, err := s1.Ingest(setProteinP(accs[0], 0.42)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(IngestDelta{Source: "blast", Ops: []IngestOp{
		{Op: "upsert-node", Node: IngestRef{Kind: "EntrezProtein", Label: "NP_NEW1"}, P: 0.7},
	}}); err != nil {
		t.Fatal(err)
	}
	live1, ok := s1.LiveStats()
	if !ok {
		t.Fatal("not live")
	}
	opts := Options{Trials: 300, Seed: 9}
	want := map[string]map[string]float64{}
	for _, p := range proteins[:3] {
		ans, err := s1.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		ranked, _, err := ans.RankCtx(context.Background(), Reliability, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		for _, a := range ranked {
			m[a.Label] = a.Score
		}
		want[p] = m
	}
	s1.Close() // syncs and closes the WAL

	s2, st2 := durableSystem(t, 5, dir, DurabilityConfig{Fsync: "always"})
	defer s2.Close()
	if !s2.LiveDurable() {
		t.Fatal("recovered system not live-durable")
	}
	if !st2.Recovered || st2.Recovery.Replayed != 2 {
		t.Fatalf("recovery stats %+v, want Recovered with 2 replayed", st2.Recovery)
	}
	live2, _ := s2.LiveStats()
	if live2.Version != live1.Version || live2.Deltas != live1.Deltas {
		t.Fatalf("recovered store at version %d/%d deltas, want %d/%d",
			live2.Version, live2.Deltas, live1.Version, live1.Deltas)
	}
	for src, ep := range live1.Epochs {
		if live2.Epochs[src] != ep {
			t.Fatalf("epoch[%s] = %d, want %d", src, live2.Epochs[src], ep)
		}
	}
	for _, p := range proteins[:3] {
		ans, err := s2.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		ranked, _, err := ans.RankCtx(context.Background(), Reliability, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) != len(want[p]) {
			t.Fatalf("%s: %d answers after recovery, want %d", p, len(ranked), len(want[p]))
		}
		for _, a := range ranked {
			if w, ok := want[p][a.Label]; !ok || math.Float64bits(a.Score) != math.Float64bits(w) {
				t.Fatalf("%s/%s: score %v after recovery, want %v", p, a.Label, a.Score, w)
			}
		}
	}
}

// TestDurableIngestSurvivesWithoutClose pins the fsync=always contract:
// every acknowledged ingest is recoverable even when the process never
// gets to sync-on-close (the WAL is simply abandoned, as SIGKILL would).
func TestDurableIngestSurvivesWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableSystem(t, 11, dir, DurabilityConfig{Fsync: "always"})
	accs := s1.Accessions(s1.Proteins()[0])
	var lastVersion uint64
	for i := 0; i < 5; i++ {
		res, err := s1.Ingest(setProteinP(accs[0], 0.3+float64(i)*0.1))
		if err != nil {
			t.Fatal(err)
		}
		lastVersion = res.Version
	}
	// No Close: the only durability is the per-append fsync.

	s2, st := durableSystem(t, 11, dir, DurabilityConfig{Fsync: "always"})
	defer s2.Close()
	live, _ := s2.LiveStats()
	if !st.Recovered || live.Version < lastVersion {
		t.Fatalf("recovered version %d < acknowledged %d (stats %+v)", live.Version, lastVersion, st.Recovery)
	}
	s1.Close()
}

// TestAutoCheckpoint pins CheckpointEvery: after enough deltas the
// facade checkpoints on its own and prunes covered segments, and the
// next recovery starts from the new checkpoint instead of replaying the
// whole history.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableSystem(t, 3, dir, DurabilityConfig{
		Fsync:           "always",
		CheckpointEvery: 3,
		SegmentBytes:    1, // rotate every record so pruning has prey
	})
	accs := s1.Accessions(s1.Proteins()[0])
	for i := 0; i < 7; i++ {
		if _, err := s1.Ingest(setProteinP(accs[0], 0.2+float64(i)*0.1)); err != nil {
			t.Fatal(err)
		}
	}
	ds, ok := s1.DurabilityStats()
	if !ok {
		t.Fatal("no durability stats")
	}
	if ds.Checkpoints < 2 || ds.LastCheckpointSeq < 3 {
		t.Fatalf("auto-checkpoint did not engage: %+v", ds)
	}
	s1.Close()

	s2, st := durableSystem(t, 3, dir, DurabilityConfig{Fsync: "always"})
	defer s2.Close()
	if !st.Recovered || st.Recovery.CheckpointSeq < 3 {
		t.Fatalf("recovery used checkpoint seq %d, want >= 3", st.Recovery.CheckpointSeq)
	}
	if st.Recovery.Replayed > 4 {
		t.Fatalf("replayed %d records despite checkpoint at %d", st.Recovery.Replayed, st.Recovery.CheckpointSeq)
	}
	live, _ := s2.LiveStats()
	if live.Deltas != 7 {
		t.Fatalf("recovered Deltas = %d, want 7", live.Deltas)
	}
}

// TestManualCheckpointAndStats exercises Checkpoint() and the stats
// surface directly.
func TestManualCheckpointAndStats(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableSystem(t, 2, dir, DurabilityConfig{Fsync: "never"})
	defer s.Close()
	accs := s.Accessions(s.Proteins()[0])
	if _, err := s.Ingest(setProteinP(accs[0], 0.5)); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("Checkpoint at seq %d, want 1", seq)
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	ds, ok := s.DurabilityStats()
	if !ok || ds.Checkpoints != 2 || ds.LastCheckpointSeq != 1 || ds.Log.Appends != 1 {
		t.Fatalf("stats %+v", ds)
	}
}

// TestDurableRefusesCorruptDir pins the loud-failure half of the
// contract at the facade level: a corrupted mid-log record refuses to
// boot rather than serving silently wrong state.
func TestDurableRefusesCorruptDir(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableSystem(t, 4, dir, DurabilityConfig{Fsync: "always"})
	accs := s1.Accessions(s1.Proteins()[0])
	for i := 0; i < 3; i++ {
		if _, err := s1.Ingest(setProteinP(accs[0], 0.3+float64(i)*0.2)); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	corruptFirstWALRecord(t, dir)

	s2, err := NewDemoSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnableLiveDurable(DurabilityConfig{Dir: dir, Fsync: "always"}); err == nil {
		t.Fatal("EnableLiveDurable accepted a corrupt mid-log record")
	} else {
		var ce *wal.CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *wal.CorruptionError", err)
		}
	}
}
