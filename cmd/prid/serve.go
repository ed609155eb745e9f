package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"prid/internal/faultinject"
	"prid/internal/serve"
	"prid/internal/serve/engine"
	"prid/internal/store"
)

// modelFlags collects repeated --model name=path pairs.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("--model wants name=path, got %q", v)
	}
	*m = append(*m, v)
	return nil
}

// cmdServe runs the HTTP model-serving subsystem: it loads the requested
// model files into the registry, serves the /v1 endpoints (predict is
// micro-batched) plus /debug/vars and /debug/pprof, and drains in-flight
// requests on SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	listen := fs.String("listen", ":8080", "listen address (\":0\" picks a free port)")
	var models modelFlags
	fs.Var(&models, "model", "serve the model file at PATH under NAME, as name=path (repeatable)")
	dir := fs.String("models-dir", "", "also serve every *.prid file in this directory (name = file base)")
	window := fs.Duration("batch-window", 2*time.Millisecond, "micro-batch collection window")
	batchMax := fs.Int("batch-max", 32, "max rows per micro-batch")
	inflight := fs.Int("max-inflight", 64, "max concurrently admitted requests (503 beyond)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request processing timeout")
	drain := fs.Duration("drain", 15*time.Second, "max time to drain in-flight requests on shutdown")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	storeDir := fs.String("store", "", "serve every model in this snapshot store (newest intact generation; see 'prid train --store')")
	mode := fs.String("mode", "", "serving mode: \"\" (float cosine) or \"binary\" (bit-packed Hamming fast path; float artifacts binarize on load, reconstruct/audit refuse)")
	chaos := fs.String("chaos", "", "inject faults per this schedule ([site.]kind=value,... — e.g. \"error=0.1,predict.latency=0.5:1ms-20ms\") for resilience testing")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for --chaos fault decisions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "" && *mode != engine.ModeBinary {
		return fmt.Errorf("serve: unknown --mode %q (want \"\" or %q)", *mode, engine.ModeBinary)
	}
	var inj *faultinject.Injector
	if *chaos != "" {
		sched, err := faultinject.ParseSchedule(*chaos)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		inj = faultinject.New(*chaosSeed, sched)
		fmt.Fprintf(os.Stderr, "serve: CHAOS MODE: injecting faults per %q (seed %d) — not for production traffic\n",
			*chaos, *chaosSeed)
	}
	s := serve.NewServer(serve.Config{
		Addr:           *listen,
		BatchWindow:    *window,
		BatchMax:       *batchMax,
		MaxInFlight:    *inflight,
		RequestTimeout: *timeout,
		Injector:       inj,
	})
	// All three sources route through the mode-selected loader pair, so
	// --mode binary serves files, directories, and stores identically.
	loadFile, loadStore := s.Registry().LoadFile, s.Registry().LoadStore
	if *mode == engine.ModeBinary {
		loadFile, loadStore = s.Registry().LoadFileBinary, s.Registry().LoadStoreBinary
	}
	for _, spec := range models {
		name, path, _ := strings.Cut(spec, "=")
		if err := loadFile(name, path); err != nil {
			return err
		}
	}
	if *dir != "" {
		paths, err := filepath.Glob(filepath.Join(*dir, "*.prid"))
		if err != nil {
			return err
		}
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".prid")
			if err := loadFile(name, path); err != nil {
				return err
			}
		}
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Config{})
		if err != nil {
			return err
		}
		names, err := st.Models()
		if err != nil {
			return err
		}
		for _, name := range names {
			// Corruption fallback happens inside LoadStore: the registry gets
			// the newest generation whose checksum verifies and which loads.
			if err := loadStore(name, st); err != nil {
				return err
			}
		}
	}
	if s.Registry().Len() == 0 {
		return fmt.Errorf("serve: no models loaded (use --model name=path, --models-dir, or --store; files come from 'prid train --save', stores from 'prid train --store')")
	}
	return runUntilSignal("serve", s, *addrFile, *drain,
		fmt.Sprintf("%d models; /v1/predict /v1/similarities /v1/reconstruct /v1/audit/leakage /v1/models /debug/vars /debug/pprof", s.Registry().Len()))
}

// process is a server the CLI runs in the foreground: `prid serve` and
// `prid gateway`.
type process interface {
	Start() error
	Addr() string
	Shutdown(ctx context.Context) error
}

// runUntilSignal is the one lifecycle of a foreground server: start p,
// announce its bound address and what it serves (detail) on stderr,
// write the address to addrFile when set, wait for SIGINT/SIGTERM, then
// drain for up to drain.
func runUntilSignal(name string, p process, addrFile string, drain time.Duration, detail string) error {
	if err := p.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: listening on http://%s (%s)\n", name, p.Addr(), detail)
	if addrFile != "" {
		// Atomic so a watcher script can never read a half-written address.
		if err := store.AtomicWriteFile(addrFile, []byte(p.Addr()), 0o644); err != nil {
			return fmt.Errorf("%s: writing --addr-file: %w", name, err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default signal behaviour: a second ^C kills hard
	fmt.Fprintf(os.Stderr, "%s: draining (up to %s)\n", name, drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return p.Shutdown(shutdownCtx)
}
