package exec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Snapshot is a logical checkpoint of a running job: everything needed to
// continue the simulation after a process restart. The simulator's event
// queue holds closures, which cannot be serialized, so a snapshot does not
// carry raw machine state; it carries the job spec (the state's generator),
// the cycle the simulation had reached, the attempt epoch, and a 64-bit
// digest of the live machine state at that cycle. Restore rebuilds the
// machine from the spec, replays deterministically to Cycle, and verifies
// the recomputed digest against Digest — so a restore on a binary whose
// simulation semantics drifted fails loudly instead of silently computing
// a different result. See DESIGN.md's checkpoint section for the design
// argument.
type Snapshot struct {
	// Cycle is the simulated cycle the snapshot was taken at.
	Cycle int64
	// Attempt is the transient-retry epoch the snapshot belongs to;
	// restore replays that attempt's seed derivation.
	Attempt int
	// Digest is protocol.(*Machine).StateDigest() at Cycle.
	Digest uint64
	// Job is the full job spec the state derives from.
	Job Job
}

// Snapshot file format: little-endian binary, versioned, self-checking.
//
//	magic   [8]byte  "INCCKPT\x01"
//	version uint32   snapshotVersion
//	cycle   int64
//	attempt uint32
//	digest  uint64
//	jobLen  uint32
//	job     [jobLen]byte (canonical JSON of the Job spec)
//	check   uint64   FNV-1a over every preceding byte
//
// The trailer checksum makes truncated or bit-damaged files detectable:
// ReadSnapshot returns ErrBadSnapshot and callers fall back to a fresh run
// (a checkpoint is an optimization, never a correctness dependency).
const snapshotMagic = "INCCKPT\x01"

// snapshotVersion invalidates old checkpoint files when the snapshot
// semantics change. Restores additionally verify the job's content hash and
// the state digest, so version bumps are only needed for format changes.
const snapshotVersion = 1

// ErrBadSnapshot reports an unreadable, truncated, corrupt or
// incompatible-version snapshot file.
var ErrBadSnapshot = errors.New("exec: bad snapshot")

func fnv1a(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Encode serializes the snapshot in the versioned binary format.
func (s Snapshot) Encode() ([]byte, error) {
	jb, err := json.Marshal(s.Job)
	if err != nil {
		return nil, fmt.Errorf("exec: snapshot job spec: %w", err)
	}
	buf := make([]byte, 0, len(snapshotMagic)+4+8+4+8+4+len(jb)+8)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Cycle))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Attempt))
	buf = binary.LittleEndian.AppendUint64(buf, s.Digest)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(jb)))
	buf = append(buf, jb...)
	buf = binary.LittleEndian.AppendUint64(buf, fnv1a(buf))
	return buf, nil
}

// DecodeSnapshot parses and verifies a snapshot encoding. Any structural
// problem — short file, wrong magic or version, checksum mismatch,
// undecodable spec — is reported as ErrBadSnapshot.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	bad := func(why string) (Snapshot, error) {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrBadSnapshot, why)
	}
	head := len(snapshotMagic) + 4 + 8 + 4 + 8 + 4
	if len(b) < head+8 {
		return bad("truncated header")
	}
	if string(b[:len(snapshotMagic)]) != snapshotMagic {
		return bad("wrong magic")
	}
	if tail := b[len(b)-8:]; binary.LittleEndian.Uint64(tail) != fnv1a(b[:len(b)-8]) {
		return bad("checksum mismatch")
	}
	off := len(snapshotMagic)
	if v := binary.LittleEndian.Uint32(b[off:]); v != snapshotVersion {
		return bad(fmt.Sprintf("version %d, want %d", v, snapshotVersion))
	}
	off += 4
	var s Snapshot
	s.Cycle = int64(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	s.Attempt = int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	s.Digest = binary.LittleEndian.Uint64(b[off:])
	off += 8
	jobLen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+jobLen != len(b)-8 {
		return bad("spec length mismatch")
	}
	if err := json.Unmarshal(b[off:off+jobLen], &s.Job); err != nil {
		return bad("spec: " + err.Error())
	}
	return s, nil
}

// WriteSnapshot stores the snapshot at path atomically (temp file +
// rename), so a crash mid-write leaves either the previous checkpoint or
// none — never a torn file a restore could half-trust.
func WriteSnapshot(path string, s Snapshot) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dirOf(path), ".ckpt*")
	if err != nil {
		return fmt.Errorf("exec: snapshot: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exec: snapshot write: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exec: snapshot: %w", err)
	}
	return nil
}

// CompatibleWith reports whether the snapshot can resume the given job:
// it must have been taken from a run of the identical spec (content hash
// equality) at a retry epoch the job's budget still covers. Callers that
// find a snapshot incompatible fall back to a fresh run — a checkpoint is
// an optimization, never a correctness dependency.
func (s Snapshot) CompatibleWith(j Job) bool {
	return s.Job.Hash() == j.Hash() && s.Attempt <= j.Retries
}

// ReadSnapshot loads and verifies the snapshot at path.
func ReadSnapshot(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return DecodeSnapshot(b)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
