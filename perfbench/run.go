package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/smr"
)

// setups is how many times an untraced run sets up; setup_s is their
// median.
const setups = 3

// options selects one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // directory the data directories are created under
	setups   int    // set-ups per run; setup_s is their median
	cycles   int    // run exactly this many steps (ingest: cycles), no time bound
	sensors  int    // corpus size
}

// bench is the state of one run: the generated inputs, the live instance
// and everything measured so far.
type bench struct {
	opt options
	c   *corpus
	in  *instance
	lat map[string]samples
	tr  *tracer // nil outside the traced phase
	gen *ingestGen
	ops []op
	pos int // next op of a static stream

	attempted, failed int
	firstErr          error
	respBytes         int64
	busy              time.Duration // time spent waiting for responses
	checkAlloc        uint64        // bytes allocated by verify
	userBytes         int64         // title+text bytes written, set-up included
	shards            int
	setupWAL          smr.WALStats        // WAL counters at the end of the last set-up
	good              map[string][32]byte // static request → digest of its verified answer
}

func (b *bench) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
}

func newBench(opt options) (*bench, error) {
	if _, ok := slots[opt.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want search, structured or ingest)", opt.workload)
	}
	c, err := buildCorpus(opt.seed, opt.sensors)
	if err != nil {
		return nil, err
	}
	b := &bench{opt: opt, c: c, lat: map[string]samples{}, userBytes: c.userBytes}
	switch opt.workload {
	case "search":
		b.ops, err = searchStream(opt.seed)
	case "structured":
		b.ops = structuredStream(opt.seed)
	case "ingest":
		b.gen, err = newIngestGen(opt.seed, c)
	}
	return b, err
}

// setUpNext replaces the running instance, if any, with set-up n: a fresh
// data directory loaded with the corpus. It returns the set-up's wall time
// in seconds.
func (b *bench) setUpNext(n int) (float64, error) {
	if b.in != nil {
		if err := b.in.stop(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(b.in.dir); err != nil {
			return 0, err
		}
		b.in = nil
		runtime.GC()
	}
	in, d, err := setUp(b.opt.root, n, b.c, b.tr)
	if err != nil {
		return 0, err
	}
	b.in = in
	b.shards = in.sys.Engine.ShardCount()
	b.setupWAL = in.sys.Repo.WALStats()
	b.userBytes = b.c.userBytes
	if b.gen != nil {
		b.gen.restart()
	}
	return d.Seconds(), nil
}

// dropInputs releases the generated corpus once the last set-up has loaded
// it, so heap_mb measures the system.
func (b *bench) dropInputs() { b.c.pages, b.c.tags = nil, nil }

// reply is one response, kept until it is checked.
type reply struct {
	o      *op
	status int
	body   []byte
}

// send sends one request and records its latency under its class. The
// response is checked later, by verify, so that checking stays out of the
// timed request time (busy). A transport error is a failed check.
func (b *bench) send(o *op) (reply, time.Duration, bool) {
	b.attempted++
	t0 := time.Now()
	status, body, err := b.in.call(o.method, o.path, o.body)
	d := time.Since(t0)
	b.busy += d
	if err != nil {
		b.fail(err)
		return reply{}, d, false
	}
	b.respBytes += int64(len(body))
	b.lat[o.class] = append(b.lat[o.class], d)
	if b.tr != nil {
		b.tr.dur["http."+o.class] = append(b.tr.dur["http."+o.class], d)
	}
	return reply{o, status, body}, d, true
}

// verify checks responses at the current state: a static-stream response
// by the digest of the one verified in the warm-up pass, a write
// acknowledgement by its revision counts, and every other response
// against the System. The bytes it allocates are kept out of
// alloc_kb_per_op.
func (b *bench) verify(rs ...reply) {
	r0 := readRuntime()
	for _, r := range rs {
		var err error
		switch o := r.o; {
		case o.verified:
			if r.status != http.StatusOK || sha256.Sum256(r.body) != o.digest {
				err = fmt.Errorf("%s %s: response differs from the verified one", o.method, o.path)
			}
		case o.class == clWrite:
			err = checkWrite(o, r.status, r.body, b.gen.written)
		default:
			err = check(b.in.sys, o, r.status, r.body)
		}
		if err != nil {
			b.fail(err)
		}
	}
	b.checkAlloc += readRuntime().allocBytes - r0.allocBytes
}

// warm sends every distinct request of a static stream once and stores
// the verified answer's digest on every op that repeats it. The first
// instance's answers are checked against the System; a later instance,
// loaded with the same corpus, must return the same bytes. Caches fill
// here, before timing starts.
func (b *bench) warm() error {
	if b.good == nil {
		b.good = map[string][32]byte{}
	}
	sent := map[string]bool{}
	for i := range b.ops {
		o := &b.ops[i]
		key := o.method + o.path + string(o.body)
		if !sent[key] {
			sent[key] = true
			status, body, err := b.in.call(o.method, o.path, o.body)
			if err != nil {
				return err
			}
			if d, ok := b.good[key]; !ok {
				if err := check(b.in.sys, o, status, body); err != nil {
					return err
				}
				b.good[key] = sha256.Sum256(body)
			} else if status != http.StatusOK || sha256.Sum256(body) != d {
				return fmt.Errorf("%s %s: set-up %s answers differently from the first set-up", o.method, o.path, filepath.Base(b.in.dir))
			}
		}
		o.digest, o.verified = b.good[key], true
	}
	return nil
}

// step runs the next unit of the workload: one request of a static stream,
// or one ingest cycle.
func (b *bench) step() {
	if b.gen == nil {
		o := &b.ops[b.pos%len(b.ops)]
		b.pos++
		if b.tr != nil {
			b.tr.request(b, o)
		} else if r, _, ok := b.send(o); ok {
			b.verify(r)
		}
		return
	}
	cyc := b.gen.next()
	for _, w := range cyc.write.writes {
		b.userBytes += int64(len(w.Title) + len(w.Text))
	}
	if b.tr != nil {
		b.tr.cycle(b, &cyc)
		return
	}
	// No response is checked before the cycle's last read: the state does
	// not change between the refresh and the next cycle's write, so every
	// check sees the state the response was served from.
	var rs []reply
	defer func() { b.verify(rs...) }()
	t0 := time.Now()
	for _, o := range []*op{&cyc.write, &cyc.refresh, &cyc.visible} {
		r, _, ok := b.send(o)
		if !ok {
			return
		}
		rs = append(rs, r)
	}
	// Refresh is explicit and synchronous, so the first read must already
	// return the new revision; a miss is a failed check, not a retry.
	b.lat["visible_total"] = append(b.lat["visible_total"], time.Since(t0))
	for i := range cyc.reads {
		if r, _, ok := b.send(&cyc.reads[i]); ok {
			rs = append(rs, r)
		}
	}
}

// preCycles is how many ingest cycles run before the reopen, so recovery
// replays a log tail of ingest writes whose length does not depend on how
// fast the timed phase ran.
const preCycles = 16

// reopens is how many times an untraced run closes and reopens its last
// instance; recovery_s is the median over the reopens.
const reopens = 2

// prepare readies an instance for a timed segment. With reopens > 0 it
// first runs the ingest workload's fixed pre-cycles, then closes and
// reopens the instance that many times, and returns each reopen's
// recovery and sensormeta.Open times in seconds. On every instance it runs
// the warm-up pass of a static stream.
func (b *bench) prepare(reopens int) (recovery, openTime []float64, err error) {
	if reopens > 0 {
		if b.gen != nil {
			for i := 0; i < preCycles; i++ {
				b.step()
			}
		}
		probes, err := b.recoveryProbes()
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < reopens; i++ {
			r, o, err := b.recover(probes)
			if err != nil {
				return nil, nil, err
			}
			recovery, openTime = append(recovery, r.Seconds()), append(openTime, o.Seconds())
		}
	}
	if b.gen == nil {
		err = b.warm()
	}
	// Every timed segment starts right after a collection, with the memory
	// freed before it already returned to the OS, so neither its first GC
	// nor the background scavenger depends on what ran before.
	debug.FreeOSMemory()
	return recovery, openTime, err
}

// phase is what one timed segment, or the sum of several, measured.
type phase struct {
	ops        int
	rates      []float64 // requests per second of request time in each window
	lat        map[string]samples
	alloc      uint64 // bytes allocated, checks excluded
	gcCPU, cpu float64
}

// add merges segment s into ph.
func (ph *phase) add(s phase) {
	if ph.lat == nil {
		ph.lat = map[string]samples{}
	}
	ph.ops += s.ops
	ph.rates = append(ph.rates, s.rates...)
	for cl, v := range s.lat {
		ph.lat[cl] = append(ph.lat[cl], v...)
	}
	ph.alloc += s.alloc
	ph.gcCPU += s.gcCPU
	ph.cpu += s.cpu
}

// gcFrac is the share of CPU time spent on garbage collection.
func (ph phase) gcFrac() float64 {
	if ph.cpu <= 0 {
		return 0
	}
	return ph.gcCPU / ph.cpu
}

// windows is how many equal slices a timed segment is cut into; ops_per_s
// is the median of the windows' rates over every segment of the run.
const windows = 2

// timed runs one segment of the workload for the given time (or the
// configured step count) and returns what it measured; b.lat holds the
// segment's latencies afterwards. A window's rate is the requests it
// completed over the time they took, from send to the last byte of the
// response: the client's checks are left out, so they neither slow the
// rate nor dilute a server-side gain.
func (b *bench) timed(seconds float64) phase {
	var ph phase
	b.lat = map[string]samples{}
	startOps, startCheck := b.attempted, b.checkAlloc
	r0 := readRuntime()
	start := time.Now()
	length := time.Duration(seconds * float64(time.Second))
	winStart, winOps, winBusy := start, b.attempted, b.busy
	for n := 0; ; n++ {
		now := time.Now()
		if b.opt.cycles == 0 && now.Sub(winStart) >= length/windows {
			ph.rates = append(ph.rates, float64(b.attempted-winOps)/(b.busy-winBusy).Seconds())
			winStart, winOps, winBusy = now, b.attempted, b.busy
		}
		if b.opt.cycles > 0 {
			if n >= b.opt.cycles {
				break
			}
		} else if len(ph.rates) == windows {
			break
		}
		b.step()
	}
	r1 := readRuntime()
	ph.ops = b.attempted - startOps
	if len(ph.rates) == 0 {
		ph.rates = []float64{float64(ph.ops) / (b.busy - winBusy).Seconds()}
	}
	ph.lat = b.lat
	ph.alloc = r1.allocBytes - r0.allocBytes - (b.checkAlloc - startCheck)
	ph.gcCPU, ph.cpu = r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU
	return ph
}

// probe is a fixed read whose answer must survive Close and reopen.
type probe struct {
	o    *op
	want [32]byte
}

// recoveryProbes picks the reads whose answers are compared across a
// reopen, and records their answers now.
func (b *bench) recoveryProbes() ([]probe, error) {
	var reads []*op
	if b.gen != nil {
		for i := range b.gen.reads {
			reads = append(reads, &b.gen.reads[i])
		}
	} else {
		for i := range b.ops {
			reads = append(reads, &b.ops[i])
		}
	}
	var out []probe
	for _, o := range reads[:min(8, len(reads))] {
		status, body, err := b.in.call(o.method, o.path, o.body)
		if err != nil {
			return nil, err
		}
		if err := check(b.in.sys, o, status, body); err != nil {
			return nil, err
		}
		out = append(out, probe{o: o, want: sha256.Sum256(body)})
	}
	return out, nil
}

// recover closes the instance and reopens its directory: Close →
// sensormeta.Open → the first probe answered over HTTP. Between Close and
// Open, untimed, the closed instance's memory is collected and returned to
// the OS, so the reopen starts from an empty heap as a restarted server
// would, not from whatever garbage the timed work left. It checks that
// LastSeq and every probe answer equal their values before Close, and
// returns the recovery time and the time sensormeta.Open alone took.
func (b *bench) recover(probes []probe) (total, openTime time.Duration, err error) {
	seq := b.in.sys.Repo.LastSeq()
	dir := b.in.dir
	start := time.Now()
	if err := b.in.stop(); err != nil {
		return 0, 0, err
	}
	b.in = nil
	closing := time.Since(start)
	debug.FreeOSMemory()
	t0 := time.Now()
	in, err := open(dir)
	if err != nil {
		return 0, 0, err
	}
	openTime = time.Since(t0)
	b.in = in
	for i, p := range probes {
		status, body, err := in.call(p.o.method, p.o.path, p.o.body)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			total = closing + time.Since(t0)
		}
		if status != 200 || sha256.Sum256(body) != p.want {
			return 0, 0, fmt.Errorf("after reopen, %s %s answers differently", p.o.method, p.o.path)
		}
	}
	if got := in.sys.Repo.LastSeq(); got != seq {
		return 0, 0, fmt.Errorf("after reopen, LastSeq = %d, want %d", got, seq)
	}
	return total, openTime, nil
}

func (b *bench) close() error {
	if b.in == nil {
		return nil
	}
	err := b.in.stop()
	if rerr := os.RemoveAll(filepath.Join(b.opt.root)); err == nil {
		err = rerr
	}
	return err
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// storedRatio is bytes in the data directory per title+text byte written.
func (b *bench) storedRatio() (float64, error) {
	n, err := dirBytes(b.in.dir)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(b.userBytes), nil
}
