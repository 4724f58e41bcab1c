// Package binfile implements the on-disk representation of compiled
// units — the paper's "bin" files (§3, §6): the unit name, the
// intrinsic static pid, the import pid vector, the dehydrated export
// static environment, and the compiled code.
//
// Reading a bin file rehydrates the environment against a context
// index; a reference to an interface that is not loaded (or whose
// provider was recompiled to a different interface) fails here, before
// anything can be linked — the first layer of type-safe linkage.
//
// Concurrency: Write and Encode are pure over their inputs. Read
// resolves stubs in the pickle.Index it is given, so concurrent
// readers must use private overlay indexes (pickle.NewOverlay) over a
// frozen shared base — the discipline the parallel scheduler in
// internal/core follows. ReadCached additionally consults a
// pickle.EnvCache, which is safe to share between any number of
// concurrent readers and Managers.
package binfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/compiler"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
)

// Magic identifies bin files; the trailing digits version the format.
// V2 appends a code section after the lambda segment — the compiled
// engine's slot layout (uvarint length prefix, then the stream
// interp.CompileFn produced) — so warm builds rebuild the closure form
// without re-resolving the term. The section does not feed the
// intrinsic-pid hash, so pids are identical to V1 by construction.
const (
	Magic   = "SMLBIN02"
	MagicV1 = "SMLBIN01"
)

// magicVersion reports the format version of data (2, 1, or 0 for not
// a bin file). Both constants are the same length, so one prefix test
// each suffices.
func magicVersion(data []byte) int {
	if len(data) < len(Magic) {
		return 0
	}
	switch string(data[:len(Magic)]) {
	case Magic:
		return 2
	case MagicV1:
		return 1
	}
	return 0
}

// Write serializes a compiled unit.
func Write(w io.Writer, u *compiler.Unit) error {
	data, err := Encode(u)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Encode serializes a compiled unit to bytes (always format V2).
//
// When the unit carries the canonical pickle of its export environment
// (compiler.Compile's fused hash+pickle traversal), the environment
// segment is derived from it by patching the recorded provisional-
// stamp sites with permanent stamps — no second traversal. The output
// is byte-identical to the slow path either way (the golden invariant
// of DESIGN.md §4f, pinned by TestBinfileGolden). The code section
// comes from the unit's compile (CodeBytes); a unit built without one
// (hand-constructed, or loaded from a V1 bin) gets its layout computed
// here, so every written bin carries the section — and because the
// layout is a pure function of the term, Encode's output is identical
// whichever exec engine the build ran on.
func Encode(u *compiler.Unit) ([]byte, error) {
	code := u.CodeBytes
	if code == nil {
		_, cb, err := interp.CompileFn(u.Code)
		if err != nil {
			return nil, fmt.Errorf("binfile: write %s: code generation: %v", u.Name, err)
		}
		code = cb
	}

	p := pickle.NewPickler(u.StatPid)
	p.Header(u.Name, u.StatPid, u.Imports, u.NumSlots)
	header := p.Bytes()

	if ep := u.EnvPickle; ep != nil {
		out := make([]byte, 0, len(Magic)+len(header)+ep.PermanentSize(u.StatPid)+len(code)+512)
		out = append(out, Magic...)
		out = append(out, header...)
		out = ep.AppendPermanent(out, u.StatPid)
		lp := pickle.NewPickler(u.StatPid)
		lp.Lambda(u.Code)
		if err := lp.Err(); err != nil {
			return nil, fmt.Errorf("binfile: write %s: %v", u.Name, err)
		}
		out = append(out, lp.Bytes()...)
		return appendCodeSection(out, code), nil
	}

	p.Env(u.Env)
	p.Lambda(u.Code)
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("binfile: write %s: %v", u.Name, err)
	}
	out := make([]byte, 0, len(Magic)+len(p.Bytes())+binary.MaxVarintLen64+len(code))
	out = append(out, Magic...)
	out = append(out, p.Bytes()...)
	return appendCodeSection(out, code), nil
}

func appendCodeSection(out, code []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(code)))
	return append(out, code...)
}

// EncodeObserved is Encode with byte and failure accounting on rec
// (counters binfile.bytes_written, binfile.encode_errors).
func EncodeObserved(u *compiler.Unit, rec obs.Recorder) ([]byte, error) {
	data, err := Encode(u)
	if err != nil {
		obs.Count(rec, "binfile.encode_errors", 1)
		return nil, err
	}
	obs.Count(rec, "binfile.bytes_written", int64(len(data)))
	return data, nil
}

// ReadObserved is Read with byte and failure accounting on rec
// (counters binfile.bytes_read, binfile.read_errors).
func ReadObserved(data []byte, ix *pickle.Index, rec obs.Recorder) (*compiler.Unit, error) {
	return ReadCachedObserved(data, ix, nil, rec)
}

// ReadCachedObserved is ReadCached with the byte and failure accounting
// of ReadObserved layered on top of the cache counters.
func ReadCachedObserved(data []byte, ix *pickle.Index, cache *pickle.EnvCache, rec obs.Recorder) (*compiler.Unit, error) {
	obs.Count(rec, "binfile.bytes_read", int64(len(data)))
	u, err := ReadCached(data, ix, cache, rec)
	if err != nil {
		obs.Count(rec, "binfile.read_errors", 1)
	}
	return u, err
}

// Read rehydrates a unit from bin-file bytes, resolving external
// references in the context index.
func Read(data []byte, ix *pickle.Index) (*compiler.Unit, error) {
	return ReadCached(data, ix, nil, nil)
}

// ReadCached is Read with an optional pid-keyed environment cache and
// byte/hit accounting on rec (counters cache.env_hits, cache.env_misses,
// cache.env_evictions).
//
// On a hit — the cache holds the bin's interface pid AND the cached
// entry's env-segment bytes are identical to this bin's — the cached
// environment and index fragment are shared, the env segment is
// skipped, and only the header and code are decoded. The byte
// comparison is what makes sharing sound: identical canonical streams
// patched with the same pid are byte-identical, so segment equality is
// exactly interface identity; the code segment, which a cutoff
// recompilation may change without moving the pid, is always decoded
// from the bytes at hand.
//
// A V2 bin's code section is loaded into the unit's compiled form
// (counter code.loads, interp.LoadFn) with every coordinate validated
// against the term — those of function bodies the unit never calls
// included, though no closure tree is built here (each body is built on
// its first call); a section that fails validation
// (counter code.load_errors) fails the read, which the store layer
// treats like any other corrupt entry — quarantine and recompile. A V1 bin simply leaves Prog nil;
// the exec phase compiles on demand.
func ReadCached(data []byte, ix *pickle.Index, cache *pickle.EnvCache, rec obs.Recorder) (*compiler.Unit, error) {
	version := magicVersion(data)
	if version == 0 {
		return nil, fmt.Errorf("binfile: bad magic")
	}
	stream := data[len(Magic):]
	u := pickle.NewUnpickler(stream, ix)
	name, statPid, imports, numSlots := u.Header()
	if err := u.Err(); err != nil {
		return nil, fmt.Errorf("binfile: read %s: %v", name, err)
	}

	var envLayer *env.Env
	var frag *pickle.Fragment
	envStart := u.Pos()
	if cache != nil {
		if ce := cache.Lookup(statPid); ce != nil &&
			bytes.HasPrefix(stream[envStart:], ce.EnvBytes) {
			obs.Count(rec, "cache.env_hits", 1)
			envLayer, frag = ce.Env, ce.Frag
			u.Skip(len(ce.EnvBytes))
		}
	}
	if envLayer == nil {
		if cache != nil {
			obs.Count(rec, "cache.env_misses", 1)
		}
		envLayer = u.Env()
		if err := u.Err(); err != nil {
			return nil, fmt.Errorf("binfile: read %s: %v", name, err)
		}
		if cache != nil {
			frag = pickle.NewFragment(envLayer)
			seg := append([]byte(nil), stream[envStart:u.Pos()]...)
			ce := &pickle.CachedEnv{
				Env: envLayer, Frag: frag, EnvBytes: seg, Objs: u.TableLen(),
			}
			obs.Count(rec, "cache.env_evictions", int64(cache.Insert(statPid, ce)))
		}
	}

	code := u.Lambda()
	if err := u.Err(); err != nil {
		return nil, fmt.Errorf("binfile: read %s: %v", name, err)
	}
	fn, ok := code.(*lambda.Fn)
	if !ok {
		return nil, fmt.Errorf("binfile: read %s: code is not a function", name)
	}

	var prog *interp.CompiledFn
	var codeBytes []byte
	if version >= 2 {
		rest := stream[u.Pos():]
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) != n {
			obs.Count(rec, "code.load_errors", 1)
			return nil, fmt.Errorf("binfile: read %s: malformed code section", name)
		}
		codeBytes = rest[k:]
		var lerr error
		prog, lerr = interp.LoadFn(fn, codeBytes)
		if lerr != nil {
			obs.Count(rec, "code.load_errors", 1)
			return nil, fmt.Errorf("binfile: read %s: %v", name, lerr)
		}
		obs.Count(rec, "code.loads", 1)
	}

	return &compiler.Unit{
		Name:      name,
		StatPid:   statPid,
		Env:       envLayer,
		Code:      fn,
		Imports:   imports,
		NumSlots:  numSlots,
		Frag:      frag,
		Prog:      prog,
		CodeBytes: codeBytes,
	}, nil
}

// ReadHeader decodes only the header (name, static pid, imports,
// export count), for dependency checks that need not rehydrate the
// environment. Both format versions are accepted.
func ReadHeader(data []byte) (name string, statPid pid.Pid, imports []pid.Pid, numSlots int, err error) {
	if magicVersion(data) == 0 {
		return "", pid.Zero, nil, 0, fmt.Errorf("binfile: bad magic")
	}
	u := pickle.NewUnpickler(data[len(Magic):], pickle.NewIndex())
	name, statPid, imports, numSlots = u.Header()
	return name, statPid, imports, numSlots, u.Err()
}
