package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one biorankd process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	base    string
	done    chan struct{} // closed once the process has been waited for
	waitErr error
	logFile *os.File
	admin   *http.Client // /readyz and /stats, off the measured connections
}

// startServer execs biorankd for the workload and returns once /readyz
// first answers 200, with the time from exec to that answer. walDir is
// used by durable workloads and must be empty.
func startServer(ctx context.Context, bin string, w *workload, walDir, logPath string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-world", "demo", "-seed", strconv.Itoa(demoSeed)}
	switch {
	case w.durable:
		args = append(args, "-wal-dir", walDir, "-fsync", "never")
	case w.live:
		args = append(args, "-live")
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	s := &server{
		cmd:     cmd,
		base:    "http://" + addr,
		done:    make(chan struct{}),
		logFile: logFile,
		admin:   &http.Client{Timeout: 10 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	for {
		select {
		case <-s.done:
			s.logFile.Close()
			return nil, 0, fmt.Errorf("biorankd exited during start-up (%v); log: %s", s.waitErr, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		default:
		}
		if resp, err := s.admin.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 2*time.Minute {
			s.stop()
			return nil, 0, fmt.Errorf("biorankd not ready after 2m; log: %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (biorankd drains, checkpoints and exits), escalates
// to SIGKILL after 30 s, and waits for the process. Safe to call twice.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.admin.CloseIdleConnections()
	s.logFile.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func (s *server) stats() (serverStats, error) {
	resp, err := s.admin.Get(s.base + "/stats")
	if err != nil {
		return serverStats{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return serverStats{}, err
	}
	return parseStats(b)
}

// serverStats holds the /stats counters the benchmark reads. biorankd
// encodes the engine's counters with Go field names, the durability
// section with snake_case tags.
type serverStats struct {
	Cache struct {
		Hits, Misses, Evictions, Invalidations int64
	} `json:"cache"`
	Plans struct {
		Hits, Misses, Patches int64
	} `json:"plans"`
	Engine struct {
		Shed uint64
	} `json:"engine"`
	Durability struct {
		Checkpoints uint64 `json:"checkpoints"`
	} `json:"durability"`
}

func parseStats(b []byte) (serverStats, error) {
	var st serverStats
	if err := json.Unmarshal(b, &st); err != nil {
		return serverStats{}, fmt.Errorf("parse /stats: %w", err)
	}
	return st, nil
}

// statsDelta is the change in the counters over the timed window.
type statsDelta struct {
	hits, misses, evictions, invalidations int64
	planHits, planMisses, planPatches      int64
	shed, checkpoints                      uint64
}

func (after serverStats) since(before serverStats) statsDelta {
	return statsDelta{
		hits:          after.Cache.Hits - before.Cache.Hits,
		misses:        after.Cache.Misses - before.Cache.Misses,
		evictions:     after.Cache.Evictions - before.Cache.Evictions,
		invalidations: after.Cache.Invalidations - before.Cache.Invalidations,
		planHits:      after.Plans.Hits - before.Plans.Hits,
		planMisses:    after.Plans.Misses - before.Plans.Misses,
		planPatches:   after.Plans.Patches - before.Plans.Patches,
		shed:          after.Engine.Shed - before.Engine.Shed,
		checkpoints:   after.Durability.Checkpoints - before.Durability.Checkpoints,
	}
}
