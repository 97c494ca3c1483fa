package persist

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Backend abstracts the durable byte store under a Log: a named-file surface
// small enough that the crash plane can implement it exactly. Two
// implementations ship: FileBackend (real files + fsync, production) and
// MemBackend (in-memory, for unit tests and the explore crash plane — it can
// snapshot its "disk" at a crash instant, keeping the synced prefix of every
// file plus a deterministic torn portion of the unsynced tail).
type Backend interface {
	// ReadFile returns name's full contents, or an error wrapping
	// fs.ErrNotExist when the file does not exist. The caller must not
	// modify the returned bytes: an implementation may hand out the bytes
	// it stores.
	ReadFile(name string) ([]byte, error)
	// ReadPieces hands name's contents to each, in order, as consecutive
	// non-empty pieces, until the file ends or each returns false. A piece
	// is valid only during its call and must not be modified: an
	// implementation may hand out the bytes it stores or reuse one buffer.
	// It returns an error wrapping fs.ErrNotExist when the file does not
	// exist.
	ReadPieces(name string, each func(piece []byte) bool) error
	// WriteAtomic durably replaces name with data: after it returns, a crash
	// observes either the old contents or the new, never a mix. The caller
	// must not modify data afterwards: an implementation may keep it as the
	// file's bytes.
	WriteAtomic(name string, data []byte) error
	// OpenAppend opens name for appending, creating it empty if absent.
	OpenAppend(name string) (File, error)
}

// File is one append-only file handle. A File is used by one
// goroutine at a time: its caller orders every Append, Sync and Close (a Log
// issues them under its sync lock), and an implementation may rely on that.
type File interface {
	// Append writes p at the end of the file. Durability is not implied.
	Append(p []byte) error
	// Sync makes every byte appended so far durable.
	Sync() error
	Close() error
}

// FileBackend stores files in one directory with real fsync barriers.
// WriteAtomic is temp-file + fsync + rename + directory fsync, the standard
// crash-safe replace.
type FileBackend struct{ dir string }

// NewFileBackend creates dir if needed and returns a backend rooted there.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileBackend{dir: dir}, nil
}

// Dir returns the backing directory.
func (b *FileBackend) Dir() string { return b.dir }

func (b *FileBackend) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(b.dir, name))
}

// filePiece is the size of the one buffer FileBackend.ReadPieces reads
// through.
const filePiece = 64 << 10

func (b *FileBackend) ReadPieces(name string, each func(piece []byte) bool) error {
	f, err := os.Open(filepath.Join(b.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, filePiece)
	for {
		n, err := f.Read(buf)
		if n > 0 && !each(buf[:n]) {
			return nil
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (b *FileBackend) WriteAtomic(name string, data []byte) error {
	tmp := filepath.Join(b.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, name)); err != nil {
		return err
	}
	return b.syncDir()
}

// syncDir fsyncs the directory so a completed rename survives a crash.
func (b *FileBackend) syncDir() error {
	d, err := os.Open(b.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (b *FileBackend) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(b.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

type osFile struct{ f *os.File }

func (o osFile) Append(p []byte) error {
	_, err := o.f.Write(p)
	return err
}
func (o osFile) Sync() error  { return o.f.Sync() }
func (o osFile) Close() error { return o.f.Close() }

// MemBackend is an in-memory Backend that models the only disk property the
// recovery protocol relies on: a crash preserves every synced byte and an
// arbitrary prefix of the unsynced tail. CrashSnapshot freezes that state
// deterministically, which is what lets the explore crash plane replay the
// same crash from the same schedule.
type MemBackend struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// A memFile's bytes live in chunks that are never regrown: an append fills
// the last chunk and opens new ones, each as large as the file so far
// (memChunkMin to memChunkMax), so a multi-MB log is never copied to
// grow and a tiny explore-plane file stays small.
const (
	memChunkMin = 1 << 10
	memChunkMax = 64 << 10
)

// chunks and size change only in append, under the backend lock, by the
// file's one user (the File contract). That user also stores synced, so Sync
// reads size without the lock and publishes it atomically; CrashSnapshot,
// which may run on another goroutine, loads synced before it reads size.
type memFile struct {
	chunks [][]byte
	size   int
	synced atomic.Int64
}

// frozenFile wraps data, which the caller hands over, as one fully synced file.
func frozenFile(data []byte) *memFile {
	f := &memFile{size: len(data)}
	f.synced.Store(int64(len(data)))
	if len(data) > 0 {
		f.chunks = [][]byte{data}
	}
	return f
}

func (f *memFile) append(p []byte) {
	for len(p) > 0 {
		n := len(f.chunks)
		if n == 0 || len(f.chunks[n-1]) == cap(f.chunks[n-1]) {
			f.chunks = append(f.chunks, make([]byte, 0, min(max(f.size, memChunkMin), memChunkMax)))
			n++
		}
		last := f.chunks[n-1]
		k := min(len(p), cap(last)-len(last))
		f.chunks[n-1] = append(last, p[:k]...)
		f.size += k
		p = p[k:]
	}
}

// prefix copies out the file's first n bytes (nil when n is zero).
func (f *memFile) prefix(n int) []byte {
	if n == 0 {
		return nil
	}
	out := make([]byte, 0, n)
	for _, c := range f.chunks {
		if len(out) == n {
			break
		}
		out = append(out, c[:min(len(c), n-len(out))]...)
	}
	return out
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: map[string]*memFile{}}
}

func (b *MemBackend) ReadFile(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	if len(f.chunks) == 1 {
		// Capped, so nothing appended to the chunk later shows through.
		return f.chunks[0][:f.size:f.size], nil
	}
	return f.prefix(f.size), nil
}

// ReadPieces hands out the file's chunks themselves, capped so that nothing
// appended later shows through, one at a time: the lock is held only to
// look each chunk up, so each may use the backend.
func (b *MemBackend) ReadPieces(name string, each func(piece []byte) bool) error {
	b.mu.Lock()
	f, ok := b.files[name]
	b.mu.Unlock()
	if !ok {
		return fs.ErrNotExist
	}
	for i := 0; ; i++ {
		var piece []byte
		b.mu.Lock()
		if i < len(f.chunks) {
			c := f.chunks[i]
			piece = c[:len(c):len(c)]
		}
		b.mu.Unlock()
		if len(piece) == 0 || !each(piece) {
			return nil
		}
	}
}

// WriteAtomic keeps data itself as the file's bytes, capped so that an
// append to the file opens a new chunk instead of writing into the caller's
// spare capacity.
func (b *MemBackend) WriteAtomic(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = frozenFile(data[:len(data):len(data)])
	return nil
}

func (b *MemBackend) OpenAppend(name string) (File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[name]
	if !ok {
		f = &memFile{}
		b.files[name] = f
	}
	return &memHandle{b: b, f: f}, nil
}

// List returns the names of existing files whose name starts with prefix,
// sorted.
func (b *MemBackend) List(prefix string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var names []string
	for name := range b.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// CrashSnapshot returns a new backend holding what a crash at this instant
// would leave on disk: for every file, the synced prefix plus half of the
// unsynced tail (rounded down) — enough tearing to cut records mid-byte,
// while staying a pure function of the append/sync history so explored
// crashes replay deterministically.
func (b *MemBackend) CrashSnapshot() *MemBackend {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := NewMemBackend()
	for name, f := range b.files {
		synced := int(f.synced.Load())
		out.files[name] = frozenFile(f.prefix(synced + (f.size-synced)/2))
	}
	return out
}

type memHandle struct {
	b *MemBackend
	f *memFile
}

func (h *memHandle) Append(p []byte) error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	h.f.append(p)
	return nil
}

func (h *memHandle) Sync() error {
	h.f.synced.Store(int64(h.f.size))
	return nil
}

func (h *memHandle) Close() error { return nil }

var errClosed = errors.New("persist: log closed")
