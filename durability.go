package biorank

import (
	"fmt"
	"sync/atomic"
	"time"

	"biorank/internal/graph"
	"biorank/internal/wal"
)

// This file wires the write-ahead log through the facade: a durable live
// system appends every ingest delta to internal/wal before committing it,
// checkpoints the union graph periodically and on demand, and — on the
// next EnableLiveDurable over the same directory — recovers to exactly
// the durable state instead of re-integrating from the sources.

// DurabilityConfig configures the live store's write-ahead log.
type DurabilityConfig struct {
	// Dir is the WAL directory (segments + checkpoints). Required.
	Dir string
	// Fsync is the append fsync policy: "always", "interval" or "never"
	// (wal.ParseSyncPolicy). Empty means "interval".
	Fsync string
	// FsyncInterval is the "interval" policy's period; zero means the
	// WAL default (100ms).
	FsyncInterval time.Duration
	// SegmentBytes overrides the segment rotation threshold; zero means
	// the WAL default (4 MiB).
	SegmentBytes int64
	// CheckpointEvery writes a checkpoint automatically after that many
	// ingested deltas (and prunes covered segments). Zero disables
	// automatic checkpoints; Checkpoint can still be called explicitly.
	CheckpointEvery int
	// FS overrides the filesystem — the chaos package injects faults
	// through this. Nil means the real filesystem.
	FS wal.FS
}

// durable is the per-liveState durability handle.
type durable struct {
	log             *wal.Log
	dir             string
	fs              wal.FS
	checkpointEvery uint64

	checkpoints       atomic.Uint64
	lastCheckpointSeq atomic.Uint64
	checkpointErrs    atomic.Uint64
	recovery          wal.RecoveryStats
	recovered         bool
}

// DurabilityStats reports the durable live store's WAL, checkpoint and
// recovery counters, for /stats.
type DurabilityStats struct {
	Dir               string            `json:"dir"`
	Log               wal.LogStats      `json:"log"`
	Checkpoints       uint64            `json:"checkpoints"`
	LastCheckpointSeq uint64            `json:"last_checkpoint_seq"`
	CheckpointErrs    uint64            `json:"checkpoint_errors"`
	Recovered         bool              `json:"recovered"`
	Recovery          wal.RecoveryStats `json:"recovery"`
}

// EnableLiveDurable is EnableLive with a write-ahead log: if cfg.Dir
// already holds durable state, the union graph is recovered from the
// newest checkpoint plus the WAL suffix (no re-integration — the
// recovered graph IS the state, including every ingested delta); on a
// fresh directory the sources are integrated once and checkpointed as
// the recovery base. Either way, every subsequent Ingest delta is
// appended to the log before it commits.
//
// The returned stats describe what recovery did; Recovered is false on a
// fresh bootstrap. The same sequencing rule as EnableLive applies: the
// call must precede the engine's lazy start.
//
// The keyword→accession index is rebuilt from this system's mediator, so
// the directory must belong to the same world (same scenario and seed);
// recovering someone else's WAL into a mismatched world fails on the
// next delta whose references don't resolve, not here.
func (s *System) EnableLiveDurable(cfg DurabilityConfig) (DurabilityStats, error) {
	if cfg.Dir == "" {
		return DurabilityStats{}, fmt.Errorf("biorank: durability requires a directory")
	}
	if cfg.Fsync == "" {
		cfg.Fsync = "interval"
	}
	policy, err := wal.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return DurabilityStats{}, err
	}

	ls, err := s.goLive("EnableLiveDurable", func() (*graph.Store, *durable, error) {
		dur := &durable{
			dir:             cfg.Dir,
			fs:              cfg.FS,
			checkpointEvery: uint64(cfg.CheckpointEvery),
		}
		rec, err := wal.Recover(cfg.Dir, cfg.FS)
		if err != nil {
			return nil, nil, fmt.Errorf("biorank: recover %s: %w", cfg.Dir, err)
		}
		var store *graph.Store
		if rec != nil {
			store = graph.NewStoreAt(rec.Graph, rec.Seq)
			dur.recovery = rec.Stats
			dur.recovered = true
			dur.lastCheckpointSeq.Store(rec.Stats.CheckpointSeq)
		} else {
			g, err := s.med.IntegrateAll(s.Proteins())
			if err != nil {
				return nil, nil, err
			}
			store = graph.NewStore(g)
			cp, err := wal.CaptureCheckpoint(g, 0)
			if err != nil {
				return nil, nil, err
			}
			if _, err := wal.WriteCheckpoint(cfg.FS, cfg.Dir, cp); err != nil {
				return nil, nil, fmt.Errorf("biorank: initial checkpoint: %w", err)
			}
			dur.checkpoints.Add(1)
		}
		dur.log, err = wal.OpenLog(cfg.Dir, wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			Sync:         policy,
			SyncEvery:    cfg.FsyncInterval,
			FS:           cfg.FS,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("biorank: open wal: %w", err)
		}
		store.SetDurability(dur.log)
		return store, dur, nil
	})
	if err != nil {
		return DurabilityStats{}, err
	}
	return s.durabilityStats(ls), nil
}

// LiveDurable reports whether the system is live with a write-ahead log.
func (s *System) LiveDurable() bool {
	ls := s.live.Load()
	return ls != nil && ls.dur != nil
}

// Checkpoint snapshots the live graph at its current WAL position,
// publishes it atomically, and prunes log segments the snapshot covers.
// The graph is serialized under the store's read lock, so the snapshot
// is consistent with the sequence number it carries; concurrent ingests
// simply wait. Returns the checkpointed sequence number.
func (s *System) Checkpoint() (uint64, error) {
	ls := s.live.Load()
	if ls == nil {
		return 0, ErrNotLive
	}
	if ls.dur == nil {
		return 0, fmt.Errorf("biorank: system is live but not durable")
	}
	var (
		cp  *wal.Checkpoint
		err error
	)
	ls.Store.ViewAt(func(g *graph.Graph, seq uint64) {
		cp, err = wal.CaptureCheckpoint(g, seq)
	})
	if err != nil {
		ls.dur.checkpointErrs.Add(1)
		return 0, err
	}
	if _, err := wal.WriteCheckpoint(ls.dur.fs, ls.dur.dir, cp); err != nil {
		ls.dur.checkpointErrs.Add(1)
		return 0, err
	}
	ls.dur.checkpoints.Add(1)
	ls.dur.lastCheckpointSeq.Store(cp.Seq)
	if _, err := ls.dur.log.PruneBefore(cp.Seq + 1); err != nil {
		// The checkpoint itself is published; stale segments are a
		// hygiene problem, not a correctness one.
		ls.dur.checkpointErrs.Add(1)
	}
	return cp.Seq, nil
}

// maybeCheckpoint runs the automatic checkpoint policy after an ingest:
// once CheckpointEvery deltas have accumulated past the last checkpoint,
// take a new one. Errors are counted, not returned — the ingest that
// triggered the checkpoint already succeeded durably via the WAL.
func (s *System) maybeCheckpoint(ls *liveState) {
	dur := ls.dur
	if dur == nil || dur.checkpointEvery == 0 {
		return
	}
	var seq uint64
	ls.Store.ViewAt(func(_ *graph.Graph, n uint64) { seq = n })
	if seq >= dur.lastCheckpointSeq.Load()+dur.checkpointEvery {
		s.Checkpoint() //nolint:errcheck // counted in checkpointErrs
	}
}

// DurabilityStats snapshots the WAL/checkpoint/recovery counters; ok is
// false when the system is not live-durable.
func (s *System) DurabilityStats() (DurabilityStats, bool) {
	ls := s.live.Load()
	if ls == nil || ls.dur == nil {
		return DurabilityStats{}, false
	}
	return s.durabilityStats(ls), true
}

func (s *System) durabilityStats(ls *liveState) DurabilityStats {
	dur := ls.dur
	return DurabilityStats{
		Dir:               dur.dir,
		Log:               dur.log.Stats(),
		Checkpoints:       dur.checkpoints.Load(),
		LastCheckpointSeq: dur.lastCheckpointSeq.Load(),
		CheckpointErrs:    dur.checkpointErrs.Load(),
		Recovered:         dur.recovered,
		Recovery:          dur.recovery,
	}
}

// SyncWAL forces an fsync of the live WAL regardless of policy — the
// drain path calls it so a clean shutdown loses nothing even under
// -fsync never.
func (s *System) SyncWAL() error {
	ls := s.live.Load()
	if ls == nil || ls.dur == nil {
		return nil
	}
	return ls.dur.log.Sync()
}

// closeDurability syncs and closes the WAL; called by System.Close.
func (s *System) closeDurability() {
	ls := s.live.Load()
	if ls == nil || ls.dur == nil {
		return
	}
	ls.dur.log.Close() //nolint:errcheck // shutdown path
}
