package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/obs"
	"repro/internal/pickle"
)

// replay re-does the work of one finished build layer by layer, calling
// each layer's public function once per unit in depend.TopoSort order
// in a fresh session, and times every call from outside. It does only
// the work the build did: a file is analysed only if the build parsed
// it, a unit compiled, hashed and encoded only if the build compiled
// it, and a bin read only if the build loaded it; so a layer idle on a
// workload reads 0.
//
// parsed marks the files whose source changed since the last build;
// action maps unit name to the build's explain action; store is the
// unwrapped store the build wrote, which supplies the cached dependency
// info and bins; cache is the environment cache bin reads go through.
func (m *meter) replay(files []core.File, parsed []bool, action map[string]string,
	store core.Store, cache *pickle.EnvCache) error {

	defer m.span("replay")()
	m.add("replays", 1)
	entries := make(map[string]*core.Entry, len(files))
	sources := make(map[string]string, len(files))
	infos := make([]*depend.Info, len(files))
	for i, f := range files {
		sources[f.Name] = f.Source
		if parsed[i] {
			end := m.span("depend.analyze")
			t0 := time.Now()
			info, err := depend.Analyze(f.Name, f.Source)
			m.add("depend.analyze_s", time.Since(t0).Seconds())
			end()
			if err != nil {
				return err
			}
			m.add("depend.lines", float64(strings.Count(f.Source, "\n")+1))
			infos[i] = info
			continue
		}
		e, err := store.Load(f.Name)
		if err != nil || e == nil {
			return fmt.Errorf("replay: no usable store entry for unparsed %s (%v)", f.Name, err)
		}
		entries[f.Name] = e
		infos[i] = &depend.Info{Name: f.Name, Defs: e.Defs, Free: e.Free}
	}

	end := m.span("depend.toposort")
	t0 := time.Now()
	order, err := depend.TopoSort(infos)
	m.add("depend.toposort_s", time.Since(t0).Seconds())
	end()
	if err != nil {
		return err
	}

	end = m.span("compiler.session")
	t0 = time.Now()
	sess, err := compiler.NewSession(io.Discard)
	m.add("compiler.session_s", time.Since(t0).Seconds())
	end()
	if err != nil {
		return err
	}

	for _, info := range order {
		name := info.Name
		var u *compiler.Unit
		switch action[name] {
		case obs.ActionCompiled:
			end := m.span("compiler.compile")
			a0, t0 := allocBytes(), time.Now()
			u, err = compiler.Compile(name, sources[name], sess.Context)
			m.add("compiler.compile_s", time.Since(t0).Seconds())
			m.add("compiler.compile_alloc_mb", float64(allocBytes()-a0)/1e6)
			m.add("compiler.compiles", 1)
			end()
			if err != nil {
				return err
			}
			end = m.span("compiler.hash")
			t0 = time.Now()
			_, _, err = compiler.HashInterface(name, u.Env)
			m.add("compiler.hash_s", time.Since(t0).Seconds())
			end()
			if err != nil {
				return err
			}
		case obs.ActionLoaded:
			e := entries[name]
			if e == nil {
				if e, err = store.Load(name); err != nil || e == nil {
					return fmt.Errorf("replay: no usable store entry for loaded %s (%v)", name, err)
				}
			}
			end := m.span("binfile.read")
			a0, t0 := allocBytes(), time.Now()
			u, err = binfile.ReadCached(e.Bin, sess.Index, cache, nil)
			m.add("binfile.read_s", time.Since(t0).Seconds())
			m.add("binfile.read_alloc_mb", float64(allocBytes()-a0)/1e6)
			end()
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("replay: build filed no explain record for %s", name)
		}

		end := m.span("compiler.execute")
		t0 := time.Now()
		err = compiler.Execute(sess.Machine, u, sess.Dyn)
		m.add("compiler.execute_s", time.Since(t0).Seconds())
		end()
		if err != nil {
			return err
		}
		sess.Accept(u)

		if action[name] == obs.ActionCompiled {
			end := m.span("binfile.encode")
			t0 := time.Now()
			bin, err := binfile.Encode(u)
			m.add("binfile.encode_s", time.Since(t0).Seconds())
			m.add("binfile.bin_mb", float64(len(bin))/1e6)
			end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// allocBytes is the process's cumulative heap allocation, the figure
// runtime.MemStats.TotalAlloc reports, read without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
