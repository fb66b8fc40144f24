package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rankedaccess/internal/api"
	"rankedaccess/internal/faultfs"
)

// Ext is the snapshot file extension.
const Ext = ".rka"

// tmpPrefix marks in-progress checkpoint files; a crash can strand
// them, and CleanTmp sweeps them at boot.
const tmpPrefix = ".tmp-snapshot-"

// FileName returns the canonical snapshot file name for a checkpoint.
// The zero-padded wall time makes lexicographic order chronological, so
// the latest snapshot is the greatest name.
func FileName(engineVersion uint64, createdUnixNano int64) string {
	return fmt.Sprintf("snapshot-%020d-v%d%s", createdUnixNano, engineVersion, Ext)
}

// ValidName reports whether name looks like a snapshot file name this
// package wrote — in particular it is a bare base name, safe to join
// under the snapshot directory.
func ValidName(name string) bool {
	_, _, ok := parseName(name)
	return ok
}

// parseName extracts the version and creation time a FileName encodes:
// "snapshot-<20-digit nanos>-v<version>.rka".
func parseName(name string) (engineVersion uint64, createdUnixNano int64, ok bool) {
	if name != filepath.Base(name) {
		return 0, 0, false
	}
	rest, found := strings.CutPrefix(name, "snapshot-")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, Ext)
	if !found || len(rest) < 22 || rest[20] != '-' || rest[21] != 'v' {
		return 0, 0, false
	}
	nano, err := strconv.ParseInt(rest[:20], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	version, err := strconv.ParseUint(rest[22:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return version, nano, true
}

// Info describes one snapshot file in a directory listing, from the
// name and file size alone (no decode).
type Info = api.SnapshotFile

// List returns the snapshots in dir, newest first. A missing directory
// lists empty.
func List(dir string) ([]Info, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Info
	for _, ent := range entries {
		version, nano, ok := parseName(ent.Name())
		if ent.IsDir() || !ok {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		out = append(out, Info{
			Name: ent.Name(), Bytes: fi.Size(),
			EngineVersion: version, CreatedUnixNano: nano,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name > out[j].Name })
	return out, nil
}

// Latest returns the newest snapshot file name in dir, if any.
func Latest(dir string) (name string, ok bool, err error) {
	infos, err := List(dir)
	if err != nil || len(infos) == 0 {
		return "", false, err
	}
	return infos[0].Name, true, nil
}

// CleanTmp removes stranded in-progress checkpoint files (from a
// crashed writer). Call it only when no other process checkpoints into
// dir.
func CleanTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasPrefix(ent.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// WriteFile atomically persists a built snapshot into dir: the bytes go
// to a temporary file which is fsynced and renamed to its canonical
// name, so a reader (or a crash) never observes a partial snapshot; on
// any error the temporary file is removed.
func WriteFile(dir string, b *Builder) (name string, size int64, err error) {
	return WriteFileFS(faultfs.OS(), dir, b)
}

// WriteFileFS is WriteFile over an explicit filesystem, the chaos-test
// seam (see internal/faultfs).
func WriteFileFS(fsys faultfs.FS, dir string, b *Builder) (name string, size int64, err error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	tmp, err := fsys.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	size, err = b.WriteTo(tmp)
	if err != nil {
		return "", 0, err
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, err
	}
	if err = tmp.Close(); err != nil {
		return "", 0, err
	}
	name = FileName(b.meta.EngineVersion, b.meta.CreatedUnixNano)
	if err = fsys.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		fsys.Remove(tmp.Name())
		return "", 0, err
	}
	return name, size, nil
}

// Mapped is an open snapshot file: a decoded File over a memory
// mapping (or a heap buffer where mapping is unavailable). The File's
// column views alias the mapping, so Close only after every structure
// reconstructed from it is unreachable.
type Mapped struct {
	file  *File
	unmap func() error
}

// Open maps and decodes a snapshot file. Decoding verifies every
// section checksum, so a torn or tampered file fails here, not during
// serving.
func Open(path string) (*Mapped, error) {
	data, unmap, ok, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if !ok {
		data, err = readAligned(path)
		if err != nil {
			return nil, err
		}
		unmap = nil
	}
	f, err := Decode(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("snapshot: %s: %w", filepath.Base(path), err)
	}
	return &Mapped{file: f, unmap: unmap}, nil
}

// File returns the decoded snapshot.
func (m *Mapped) File() *File { return m.file }

// Close releases the mapping. The File and everything aliasing it
// become invalid.
func (m *Mapped) Close() error {
	if m.unmap == nil {
		return nil
	}
	un := m.unmap
	m.unmap = nil
	return un()
}

// readAligned reads a whole file into a buffer whose start is 8-byte
// aligned (backed by []int64), preserving the zero-copy casts of the
// mmap path.
func readAligned(path string) ([]byte, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	size := int(st.Size())
	if size == 0 {
		return nil, corrupt("empty file")
	}
	backing := make([]int64, (size+7)/8)
	buf := i64Bytes(backing)[:size]
	if _, err := fd.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}
