// Package recfile is the repository's one durable-record format and the one
// append-only log lifecycle on top of it. The campaign checkpoint journal
// (internal/core), the distributed coordinator's write-ahead log
// (internal/dist) and the cross-campaign sense feature store and model
// files (internal/sense) all store one JSON record per line, each line a
// fixed-width hex length prefix, a CRC32 of the payload and the payload
// itself:
//
//	llllllll cccccccc {payload}\n
//
// Log owns the file lifecycle those owners share: atomic creation (Create),
// validating open with torn-tail repair (Open), single-write appends and
// sync-then-close. Appends are single writes of whole lines, so a crash
// can at worst leave one torn trailing line; Split isolates that tail so
// Open can truncate it, while a checksum or length failure anywhere
// *before* the tail is real corruption that Scan reports as an error
// naming the record number and byte offset, never silently skips. Every
// log opens with its owner's header record, first and only first. The
// owners keep only their record kinds and the folding of records into
// state. A reader strips the frame with `cut -c19-`.
package recfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// prefixLen is the byte length of "llllllll cccccccc " — two fixed-width
// lowercase-hex fields and their separating spaces.
const prefixLen = 18

// EncodeLine renders one payload as a complete record line, trailing
// newline included.
func EncodeLine(payload []byte) []byte {
	return appendLine(make([]byte, 0, len(payload)+prefixLen+1), payload)
}

func appendLine(dst, payload []byte) []byte {
	dst = fmt.Appendf(dst, "%08x %08x ", len(payload), crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// ParseLine validates one complete line (without its newline) and returns
// the payload.
func ParseLine(line string) ([]byte, error) {
	if len(line) < prefixLen {
		return nil, fmt.Errorf("short record prefix (%d bytes)", len(line))
	}
	if line[8] != ' ' || line[17] != ' ' {
		return nil, fmt.Errorf("malformed length/checksum prefix %q", line[:prefixLen])
	}
	n, err := strconv.ParseUint(line[:8], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed length prefix %q", line[:8])
	}
	sum, err := strconv.ParseUint(line[9:17], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum prefix %q", line[9:17])
	}
	payload := line[prefixLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload is %d bytes, record declares %d", len(payload), n)
	}
	if got := crc32.ChecksumIEEE([]byte(payload)); uint64(got) != sum {
		return nil, fmt.Errorf("checksum mismatch: payload sums to %08x, record declares %08x", got, sum)
	}
	return []byte(payload), nil
}

// Split divides a log's bytes into its complete lines (newlines stripped,
// not yet validated — run each through ParseLine). A well-formed log ends
// with "\n"; any bytes after the final newline are a torn final append,
// reported via tornTail and excluded from the returned lines. validLen is
// the byte length up to and including the last complete line — what an
// opener truncates a torn log to before appending.
func Split(data []byte) (lines []string, tornTail bool, validLen int64) {
	lines = strings.Split(string(data), "\n")
	tornTail = lines[len(lines)-1] != ""
	validLen = int64(len(data))
	if tornTail {
		validLen -= int64(len(lines[len(lines)-1]))
	}
	return lines[:len(lines)-1], tornTail, validLen
}

// Record is one validated log record: a JSON object whose "kind" field
// names which of the owning log's record types the payload holds.
type Record struct {
	Kind    string
	Payload []byte
}

// Marshal renders each value as one JSON record line, concatenated in
// order.
func Marshal(recs ...any) ([]byte, error) {
	var out []byte
	for _, v := range recs {
		payload, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encoding record: %w", err)
		}
		out = appendLine(out, payload)
	}
	return out, nil
}

// Scan validates data as a whole log and passes its records to fold in
// file order. Every complete line must satisfy the grammar and carry a
// JSON object with a "kind", and the record of kind header must come first
// and only first; the first line that breaks any of that — or that fold
// rejects — is reported as an error naming its record number and byte
// offset. A torn trailing line after at least one complete record is not
// an error: it is reported via torn, with validLen the length of the log
// without it. (Create writes the header atomically, so a log with no
// complete record was never one.)
func Scan(data []byte, header string, fold func(Record) error) (torn bool, validLen int64, err error) {
	if len(data) == 0 {
		return false, 0, errors.New("empty file")
	}
	lines, torn, validLen := Split(data)
	if len(lines) == 0 {
		return false, 0, errors.New("no complete record")
	}
	offset := int64(0)
	for i, line := range lines {
		rec := Record{}
		rec.Payload, err = ParseLine(line)
		if err == nil {
			var kind struct {
				Kind string `json:"kind"`
			}
			if err = json.Unmarshal(rec.Payload, &kind); err != nil {
				err = fmt.Errorf("corrupt payload: %w", err)
			}
			rec.Kind = kind.Kind
		}
		switch {
		case err != nil:
		case i == 0 && rec.Kind != header:
			err = fmt.Errorf("missing header record %q", header)
		case i > 0 && rec.Kind == header:
			err = fmt.Errorf("unexpected second header record %q", header)
		default:
			err = fold(rec)
		}
		if err != nil {
			return false, 0, fmt.Errorf("record %d at offset %d: %w", i+1, offset, err)
		}
		offset += int64(len(line)) + 1
	}
	return torn, validLen, nil
}

// Load reads the log at path through Scan without modifying it.
func Load(path, header string, fold func(Record) error) (torn bool, err error) {
	torn, _, err = load(path, header, fold)
	return torn, err
}

func load(path, header string, fold func(Record) error) (torn bool, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, 0, err
	}
	if torn, validLen, err = Scan(data, header, fold); err != nil {
		return false, 0, fmt.Errorf("%s: %w", path, err)
	}
	return torn, validLen, nil
}

// WriteFile atomically replaces path with data: the bytes are written to
// a temporary file in the same directory, fsynced and renamed into place,
// so a half-written file is never observed under the final name.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// Log is an open append-only record log. Appends are single writes of
// whole lines, so a crash can at worst leave one torn trailing line, which
// the next Open truncates away. Methods are safe for concurrent use.
type Log struct {
	path string

	mu sync.Mutex
	f  *os.File
}

// Create atomically creates a fresh log at path holding the head records
// (see WriteFile) and opens it for appends. It refuses to overwrite an
// existing file — that log belongs to someone; Open it instead.
func Create(path string, head ...any) (*Log, error) {
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("%s already exists", path)
	}
	data, err := Marshal(head...)
	if err != nil {
		return nil, err
	}
	if err := WriteFile(path, data); err != nil {
		return nil, err
	}
	return openAppend(path)
}

// Open loads the log at path through Scan, truncates a torn tail so the
// file ends on a complete line, and opens it for appends after it.
func Open(path, header string, fold func(Record) error) (l *Log, torn bool, err error) {
	torn, validLen, err := load(path, header, fold)
	if err != nil {
		return nil, false, err
	}
	if torn {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, false, fmt.Errorf("repairing %s: %w", path, err)
		}
	}
	l, err = openAppend(path)
	return l, torn, err
}

func openAppend(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", path, err)
	}
	return &Log{path: path, f: f}, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Append writes v as one record line in a single write. It does not
// fsync; Sync and Close do.
func (l *Log) Append(v any) error {
	line, err := Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("%s: already closed", l.path)
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("appending to %s: %w", l.path, err)
	}
	return nil
}

// Sync flushes appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the log; closing twice is harmless. The file
// stays on disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
