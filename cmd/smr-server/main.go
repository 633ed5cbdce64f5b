// Command smr-server runs the sensor-metadata search web application. With
// -demo it pre-loads a synthetic Swiss-Experiment-style corpus so every
// endpoint has data to show. With -follow it runs as a read replica of
// another smr-server: it bootstraps from the primary's snapshot, tails its
// write-ahead log, and serves the full read API while rejecting writes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	sensormeta "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/smr"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "pre-load a synthetic demo corpus")
	sensors := flag.Int("sensors", 900, "demo corpus size (sensors)")
	snapshot := flag.String("snapshot", "", "load the repository from this snapshot file at startup")
	dataDir := flag.String("data-dir", "",
		"durable data directory: restore snapshot + WAL tail at startup, journal every write (empty disables persistence)")
	fsync := flag.String("fsync", "always",
		"WAL fsync policy with -data-dir: always (sync every write) or none (leave flushing to the OS)")
	autoSnapBytes := flag.Int64("auto-snapshot-bytes", 64<<20,
		"with -data-dir: snapshot + compact in the background once this many WAL bytes accumulate since the last snapshot (0 disables)")
	autoSnapAge := flag.Duration("auto-snapshot-age", 0,
		"with -data-dir: additionally snapshot in the background when the newest snapshot is older than this and the log has grown (0 disables)")
	autoRefresh := flag.Duration("auto-refresh", 0,
		"refresh derived structures automatically after writes, debounced by this duration (0 disables)")
	follow := flag.String("follow", "",
		"run as a read replica of the primary at this base URL (requires -data-dir for the local WAL)")
	maxLag := flag.Uint64("max-lag", 0,
		"with -follow: serve 503 instead of reads once the replica lags the primary by more than this many sequence numbers (0 disables)")
	shutdownWait := flag.Duration("shutdown-wait", 10*time.Second,
		"how long to let in-flight requests drain on SIGINT/SIGTERM before forcing exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	policy := wal.SyncAlways
	if *dataDir != "" || *follow != "" {
		p, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		policy = p
	}

	var sys *sensormeta.System
	var opts server.Options
	opts.AutoRefresh = *autoRefresh
	var follower *replica.Follower

	switch {
	case *follow != "":
		if *dataDir == "" {
			log.Fatal("-follow requires -data-dir (the follower re-logs applied records locally)")
		}
		if *demo || *snapshot != "" {
			log.Fatal("-follow is incompatible with -demo and -snapshot (a replica only replays the primary's log)")
		}
		start := time.Now()
		f, err := replica.Open(ctx, replica.Config{
			PrimaryURL: *follow,
			Dir:        *dataDir,
			Durable: smr.DurableOptions{
				Fsync:             policy,
				AutoSnapshotBytes: *autoSnapBytes,
				AutoSnapshotAge:   *autoSnapAge,
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		follower = f
		sys = follower.System()
		if err := sys.Refresh(); err != nil {
			log.Fatal(err)
		}
		log.Printf("following %s: %d pages at seq %d (fsync=%s) in %v",
			*follow, sys.Repo.Wiki.Len(), sys.Repo.LastSeq(), policy, time.Since(start).Round(time.Millisecond))
		opts.Replica = follower
		opts.MaxLagSeq = *maxLag
	case *dataDir != "":
		if *snapshot != "" {
			log.Fatal("-snapshot and -data-dir are mutually exclusive (a data dir manages its own snapshots)")
		}
		start := time.Now()
		var err error
		sys, err = sensormeta.Open(*dataDir, smr.DurableOptions{
			Fsync:             policy,
			AutoSnapshotBytes: *autoSnapBytes,
			AutoSnapshotAge:   *autoSnapAge,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := sys.Stats()
		log.Printf("data dir %s: %d pages restored (journal seq %d, snapshot seq %d, %d WAL segment(s), fsync=%s) in %v",
			*dataDir, sys.Repo.Wiki.Len(), st.WAL.LastSeq, st.WAL.SnapshotSeq, st.WAL.Segments,
			policy, time.Since(start).Round(time.Millisecond))
	default:
		var err error
		sys, err = sensormeta.New()
		if err != nil {
			log.Fatal(err)
		}
	}
	if *snapshot != "" {
		start := time.Now()
		if err := sys.Repo.LoadSnapshotFile(*snapshot); err != nil {
			log.Fatal(err)
		}
		if err := sys.Refresh(); err != nil {
			log.Fatal(err)
		}
		log.Printf("snapshot %s: %d pages in %v", *snapshot, sys.Repo.Wiki.Len(),
			time.Since(start).Round(time.Millisecond))
	}
	if *demo {
		corpus := workload.DefaultCorpus()
		corpus.Sensors = *sensors
		start := time.Now()
		stats, err := workload.BuildCorpus(sys.Repo, corpus)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Refresh(); err != nil {
			log.Fatal(err)
		}
		log.Printf("demo corpus: %d pages (%d sites, %d deployments, %d sensors), %d tags in %v",
			stats.Pages, stats.Sites, stats.Deployments, stats.Sensors, stats.Tags, time.Since(start).Round(time.Millisecond))
	}

	if *autoRefresh > 0 {
		log.Printf("auto-refresh on write enabled (debounce %v)", *autoRefresh)
	}
	handler := server.NewWithOptions(sys, opts)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The replication loop and the HTTP listener both run until the first
	// fatal error or shutdown signal; either one ending stops the other.
	errc := make(chan error, 2)
	if follower != nil {
		go func() {
			err := follower.Run(ctx)
			if errors.Is(err, context.Canceled) {
				err = nil
			}
			errc <- err
		}()
	}
	go func() {
		log.Printf("sensor metadata search listening on %s (legacy GET APIs + POST /api/v1/query)", *addr)
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()

	exitErr := waitForShutdown(ctx, errc)

	// Graceful drain: stop accepting connections, give in-flight requests a
	// deadline, then close the repository so the WAL is cleanly released.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v (forcing close)", err)
		srv.Close()
	}
	handler.Close()
	if err := sys.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	if exitErr != nil {
		log.Fatal(exitErr)
	}
	log.Printf("clean shutdown")
}

// waitForShutdown blocks until a shutdown signal arrives or one of the
// long-running goroutines fails, and returns the error to exit with.
func waitForShutdown(ctx context.Context, errc <-chan error) error {
	select {
	case <-ctx.Done():
		log.Printf("signal received, draining")
		return nil
	case err := <-errc:
		if err != nil {
			log.Printf("fatal: %v", err)
		}
		return err
	}
}
