package main

import (
	"os"
	"time"

	"repro/internal/core"
)

// The wrappers below time the storage layers from outside, at their
// public interfaces: core.FS (handed to core.NewDirStoreFS), core.Store
// and core.Locker. Each call adds its duration and volume to the meter
// and records a span under the enclosing one.

// timedFS wraps a core.FS.
type timedFS struct {
	core.FS
	m *meter
}

func (f timedFS) ReadFile(path string) ([]byte, error) {
	defer f.m.span("fs.read")()
	t0 := time.Now()
	data, err := f.FS.ReadFile(path)
	f.m.add("core.fs.read_s", time.Since(t0).Seconds())
	f.m.add("core.fs.read_mb", float64(len(data))/1e6)
	return data, err
}

func (f timedFS) OpenFile(path string, flag int, perm os.FileMode) (core.FileHandle, error) {
	h, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{h, f.m}, nil
}

func (f timedFS) Rename(oldPath, newPath string) error {
	defer f.m.span("fs.rename")()
	t0 := time.Now()
	err := f.FS.Rename(oldPath, newPath)
	f.m.add("core.fs.rename_s", time.Since(t0).Seconds())
	return err
}

func (f timedFS) SyncDir(dir string) error {
	defer f.m.span("fs.syncdir")()
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.m.add("core.fs.fsync_s", time.Since(t0).Seconds())
	f.m.add("core.fs.fsyncs", 1)
	return err
}

// timedFile wraps the writable handles timedFS opens.
type timedFile struct {
	core.FileHandle
	m *meter
}

func (h timedFile) Write(p []byte) (int, error) {
	defer h.m.span("fs.write")()
	t0 := time.Now()
	n, err := h.FileHandle.Write(p)
	h.m.add("core.fs.write_s", time.Since(t0).Seconds())
	h.m.add("core.fs.write_mb", float64(n)/1e6)
	return n, err
}

func (h timedFile) Sync() error {
	defer h.m.span("fs.fsync")()
	t0 := time.Now()
	err := h.FileHandle.Sync()
	h.m.add("core.fs.fsync_s", time.Since(t0).Seconds())
	h.m.add("core.fs.fsyncs", 1)
	return err
}

// lockingStore is what the workloads hand the Manager: a store that
// also serializes builds. core.DirStore is one.
type lockingStore interface {
	core.Store
	core.Locker
}

// timedStore wraps a store, forwarding Lock so that a wrapped build
// still takes the store lock.
type timedStore struct {
	inner lockingStore
	m     *meter
}

func (s timedStore) Load(name string) (*core.Entry, error) {
	defer s.m.span("store.load")()
	t0 := time.Now()
	e, err := s.inner.Load(name)
	s.m.add("core.store.load_s", time.Since(t0).Seconds())
	s.m.add("core.store.loads", 1)
	return e, err
}

func (s timedStore) Save(name string, e *core.Entry) error {
	defer s.m.span("store.save")()
	t0 := time.Now()
	err := s.inner.Save(name, e)
	s.m.add("core.store.save_s", time.Since(t0).Seconds())
	s.m.add("core.store.saves", 1)
	return err
}

func (s timedStore) Lock() (func(), error) {
	defer s.m.span("lock.wait")()
	t0 := time.Now()
	release, err := s.inner.Lock()
	s.m.add("core.lock.wait_s", time.Since(t0).Seconds())
	return release, err
}

// openStore opens the on-disk store at dir: plain when m is nil, and
// wrapped at the FS, Store and Locker interfaces otherwise.
func openStore(dir string, m *meter) (lockingStore, error) {
	if m == nil {
		return core.NewDirStore(dir)
	}
	ds, err := core.NewDirStoreFS(dir, timedFS{core.OSFS{}, m})
	if err != nil {
		return nil, err
	}
	return timedStore{ds, m}, nil
}
