package main

// The three workloads. Each drives the build system through the calls
// cmd/minibuild makes, on a project from the standard suite, with commits
// drawn from the default edit stream under the run's seed. The seed
// reaches the program only through the sources and edits it generates.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/workload"
)

var workloads = map[string]func(*bench) error{
	"daemon-steady": (*bench).daemonSteady,
	"cli-clone":     (*bench).cliClone,
	"shared-cache":  (*bench).sharedCache,
}

// setupOK rejects an untimed build that failed: a run whose set-up went
// wrong measures nothing.
func setupOK(what string, o outcome, want string) error {
	switch {
	case o.err != nil:
		return fmt.Errorf("%s: %w", what, o.err)
	case len(o.rep.Warnings) > 0:
		return fmt.Errorf("%s: warnings: %v", what, o.rep.Warnings)
	case program(o) != want:
		return fmt.Errorf("%s: program differs from the stateless oracle", what)
	}
	return nil
}

// recordsIn counts the flight recorder's records in a state directory.
func recordsIn(stateDir string) int {
	recs, _ := history.Load(history.Path(stateDir))
	return len(recs)
}

// daemonSteady: one resident Builder over a state directory on mathkit,
// as `minibuild serve` keeps one. Each step writes one commit to disk,
// then calls LoadDir and BuildContext, as serve's poll loop does. Timing
// starts with the flight recorder at its cap, the state of every checkout
// older than that many builds.
func (bn *bench) daemonSteady() error {
	t0 := cpuNow()
	base := workload.Generate(profile("mathkit"))
	dir := filepath.Join(bn.work, "src")
	var err error
	if bn.oracle, err = bn.newClient("oracle", dir, "", compiler.ModeStateless, false, nil); err != nil {
		return err
	}
	bn.reference = func(string) *client { return bn.oracle }
	stateDir := filepath.Join(bn.work, "state")
	d, err := bn.newClient("daemon", dir, stateDir, compiler.ModeStateful, false, nil)
	if err != nil {
		return err
	}
	if err := d.write(base); err != nil {
		return err
	}
	if err := setupOK("daemon-steady: first build", bn.build(d, false, false), program(bn.build(bn.oracle, false, false))); err != nil {
		return err
	}
	ed := workload.NewEditor(bn.seed)
	cur := base
	for i := 0; i < bn.p.replay; i++ {
		cur = nextCommit(ed, cur)
		if err := d.write(cur); err != nil {
			return err
		}
		if o := bn.build(d, false, false); o.err != nil || len(o.rep.Warnings) > 0 {
			return fmt.Errorf("daemon-steady: replay build %d: %v %v", i+1, o.err, o.rep.Warnings)
		}
	}
	bn.setupS = append(bn.setupS, (cpuNow() - t0).Seconds())
	got, want := recordsIn(stateDir), min(history.DefaultLimit, 1+bn.p.replay)
	bn.engage(got == want, "daemon-steady: flight recorder holds %d records before timing, want %d", got, want)

	bn.start = time.Now()
	for n := 0; bn.more(n); n++ {
		cur = nextCommit(ed, cur)
		if err := d.write(cur); err != nil {
			return err
		}
		_, want := bn.step(d, n)
		if n%bn.p.coldEvery == 0 {
			// A second daemon started on this checkout with an empty state
			// directory: a cold-build sample, spread over the window.
			cold, err := bn.newClient("daemon", dir, filepath.Join(bn.work, fmt.Sprintf("cold%d", n)), compiler.ModeStateful, false, nil)
			if err != nil {
				return err
			}
			o := bn.build(cold, true, false)
			bn.cold.add(o)
			bn.check("daemon", o, want)
			if err := os.RemoveAll(cold.opts.StateDir); err != nil {
				return err
			}
		}
	}
	size, files := dirStats(stateDir)
	bn.stateKiB = append(bn.stateKiB, float64(size)/1024)
	bn.stateFiles, bn.histRecs = files, recordsIn(stateDir)
	return nil
}

// cliClone: one new Builder per build, as one minibuild process per
// invocation, over netstack. Several fresh clones, each with its own
// edit-stream seed, an empty state directory and a short stream. After a
// clone's first (cold) build every unit recompiles with its dormancy state
// loaded from disk, so pass skipping does most of the work.
func (bn *bench) cliClone() error {
	var err error
	if bn.oracle, err = bn.newClient("oracle", "", "", compiler.ModeStateless, false, nil); err != nil {
		return err
	}
	bn.reference = func(dir string) *client {
		c, _ := bn.newClient("reference", dir, "", compiler.ModeStateless, true, nil)
		return c
	}

	bn.start = time.Now()
	steps := 0
	for k := 0; bn.more(steps); k++ {
		// Set-up of a clone: its checkout and an empty state directory.
		t := cpuNow()
		cdir := filepath.Join(bn.work, fmt.Sprintf("clone%d", k))
		stateDir := filepath.Join(cdir, "state")
		base := workload.Generate(profile("netstack"))
		c, err := bn.newClient("clone", filepath.Join(cdir, "src"), stateDir, compiler.ModeStateful, true, nil)
		if err != nil {
			return err
		}
		if err := c.write(base); err != nil {
			return err
		}
		bn.setupS = append(bn.setupS, (cpuNow() - t).Seconds())

		bn.oracle.dir = c.dir
		o := bn.build(c, true, false)
		bn.cold.add(o)
		bn.check("clone", o, program(bn.build(bn.oracle, false, false)))

		ed := workload.NewEditor(bn.seed<<16 + int64(k))
		cur := base
		for e := 0; e < bn.p.cloneEdits; e++ {
			cur = nextCommit(ed, cur)
			if err := c.write(cur); err != nil {
				return err
			}
			o, _ := bn.step(c, steps)
			steps++
			if o.err == nil {
				bn.engage(o.delta[obs.CtrStateLoads] == int64(len(o.snap)),
					"cli-clone: clone %d build %d loaded state for %d of %d units", k, e+2, o.delta[obs.CtrStateLoads], len(o.snap))
				bn.engage(o.delta[obs.CtrPassSkipped] > 0, "cli-clone: clone %d build %d skipped no passes", k, e+2)
			}
		}
		size, files := dirStats(stateDir)
		bn.stateKiB = append(bn.stateKiB, float64(size)/1024)
		bn.stateFiles, bn.histRecs = files, recordsIn(stateDir)
		if err := os.RemoveAll(cdir); err != nil {
			return err
		}
	}
	return nil
}

// sharedCache: an in-process cas.Server behind httptest serves two
// clients on netstack. A publisher replays the stream, compiling and
// publishing each commit; a consumer builds each commit after it and is
// served remotely. Fresh consumer clones cold-build against the warm
// cache. Each epoch starts a new server and new clients, so a run's
// per-build costs do not depend on how many epochs fit its window.
func (bn *bench) sharedCache() error {
	var err error
	if bn.oracle, err = bn.newClient("oracle", "", "", compiler.ModeStateless, false, nil); err != nil {
		return err
	}
	bn.reference = func(string) *client { return bn.oracle }

	bn.start = time.Now()
	steps := 0
	for e := 0; bn.more(steps); e++ {
		if err := bn.epoch(e, &steps); err != nil {
			return err
		}
	}
	return nil
}

// epoch runs one publisher/consumer pair over a new server. Its set-up —
// sources, server and clients — is one set-up sample. The publisher's
// first build, from an empty state directory, compiles and publishes every
// unit: it is the workload's cold build, and it warms the cache.
func (bn *bench) epoch(e int, steps *int) error {
	t := cpuNow()
	edir := filepath.Join(bn.work, fmt.Sprintf("epoch%d", e))
	base := workload.Generate(profile("netstack"))
	// An in-memory backing store keeps the server's own disk writes out of
	// the clients' timings: this workload measures the client side.
	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: obs.NewRegistry()})
	hs := httptest.NewServer(srv.Handler())
	var transports []*http.Transport
	defer func() {
		hs.Close()
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}()
	// One connection per client, as one minibuild process holds.
	casClient := func(role, sub string) (*client, error) {
		tr := &http.Transport{MaxConnsPerHost: 1}
		transports = append(transports, tr)
		h := cas.NewHTTPCASOpts(hs.URL, role, cas.HTTPOptions{Transport: tr})
		return bn.newClient(role, filepath.Join(edir, sub, "src"), filepath.Join(edir, sub, "state"),
			compiler.ModeStateful, false, h)
	}
	pub, err := casClient("publisher", "publisher")
	if err != nil {
		return err
	}
	con, err := casClient("consumer", "consumer")
	if err != nil {
		return err
	}
	if err := pub.write(base); err != nil {
		return err
	}
	if err := con.write(base); err != nil {
		return err
	}
	bn.setupS = append(bn.setupS, (cpuNow() - t).Seconds())
	o := bn.build(pub, true, false)
	bn.cold.add(o)
	bn.oracle.dir = con.dir
	want := program(bn.build(bn.oracle, false, false))
	if err := setupOK("shared-cache: publisher's first build", o, want); err != nil {
		return err
	}
	bn.check("publisher", o, want)
	bn.coldConsumer(con, want)

	ed := workload.NewEditor(bn.seed<<16 + int64(e))
	cur := base
	for i := 0; i < bn.p.epochCommits; i++ {
		cur = nextCommit(ed, cur)
		if err := pub.write(cur); err != nil {
			return err
		}
		if err := con.write(cur); err != nil {
			return err
		}
		po := bn.build(pub, true, bn.rec != nil && *steps%2 == 0)
		bn.publish.add(po)
		co, want := bn.step(con, *steps)
		*steps++
		if bn.check("publisher", po, want) && po.trace != nil {
			bn.pubLayers = append(bn.pubLayers, po.trace)
		}
		if co.err == nil {
			bn.engage(co.delta[obs.CtrCASHits] > 0 && co.delta[obs.CtrCASVerifyFailed] == 0 && co.rep.UnitsCompiled == 0,
				"shared-cache: consumer build %d: cas.hit %d, cas.verify_failed %d, %d units compiled",
				*steps, co.delta[obs.CtrCASHits], co.delta[obs.CtrCASVerifyFailed], co.rep.UnitsCompiled)
		}
		if (i+1)%bn.p.coldEvery == 0 {
			// A new consumer clones this commit and cold-builds it.
			sub := fmt.Sprintf("fresh%d", i)
			fresh, err := casClient("consumer", sub)
			if err != nil {
				return err
			}
			if err := fresh.write(cur); err != nil {
				return err
			}
			bn.coldConsumer(fresh, want)
			// Then it goes away, so later builds run beside the same
			// connections and files as the first.
			transports[len(transports)-1].CloseIdleConnections()
			if err := os.RemoveAll(filepath.Join(edir, sub)); err != nil {
				return err
			}
		}
	}

	ps, _ := dirStats(filepath.Join(edir, "publisher", "state"))
	cs, files := dirStats(filepath.Join(edir, "consumer", "state"))
	bn.stateKiB = append(bn.stateKiB, float64(ps+cs)/1024)
	bn.stateFiles, bn.histRecs = files, recordsIn(filepath.Join(edir, "consumer", "state"))
	return os.RemoveAll(edir)
}

// coldConsumer makes a consumer's first build against the warm cache,
// which must serve every unit. It is checked like a timed build, but its
// time is a per-layer figure only (consumerCold).
func (bn *bench) coldConsumer(c *client, want string) {
	o := bn.build(c, false, false)
	bn.consumerCold.add(o)
	if bn.check("consumer", o, want) {
		bn.engage(o.rep.UnitsCompiled == 0 && o.delta[obs.CtrCASVerifyFailed] == 0,
			"shared-cache: a fresh consumer compiled %d units against the warm cache", o.rep.UnitsCompiled)
	}
}
