package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/iofault"
)

// journalVersion is the only format this build reads or writes. Version 2
// frames every record with a CRC32C and an explicit length so replay
// detects a corrupt record anywhere in the file — not just a torn final
// line — and quarantines it instead of silently accepting flipped bytes
// that happen to still parse as JSON. A journal with any other version
// header is refused whole; an unframed line is corrupt like any other.
const journalVersion = 2

// castagnoli is the CRC32C table (the polynomial used by ext4, btrfs and
// iSCSI for exactly this job).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWounded marks a journal that failed a durable write. A wounded
// journal refuses further appends (each attempt first tries to heal:
// truncate back to the last fsynced boundary and retry) so that no caller
// ever believes a record durable that the disk rejected.
var ErrWounded = errors.New("journal wounded: a durable write failed; appends are refused until a retry heals it")

// Record is one checkpointed run: the cache key and the full Result, so a
// resumed sweep renders identical tables without re-simulating. Records
// written by older builds also carry an "attempts" field, which decoding
// ignores.
type Record struct {
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// journalHeader is the first line of every journal file.
type journalHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
}

// ReplayStats summarizes what LoadJournal found besides valid records.
type ReplayStats struct {
	// Skipped counts torn final lines — the expected wound of a process
	// killed mid-write. At most 1 per crash; sealed on the next open.
	Skipped int
	// Quarantined counts corrupt records found anywhere else in the file
	// (CRC mismatch, length mismatch, garbage bytes). Each one's raw line
	// is preserved in the .corrupt sidecar for forensics; replay continues
	// past it, so one flipped byte costs one re-run, never the file.
	Quarantined int
	// SidecarErr is the first error writing the quarantine sidecar.
	// Replay itself still succeeded; callers should log it loudly.
	SidecarErr error
}

// QuarantinePath is the sidecar file that receives corrupt journal lines.
func QuarantinePath(path string) string { return path + ".corrupt" }

// Journal appends checkpoint records to a CRC-framed JSONL file, fsyncing
// after every record so a killed process loses at most the runs still in
// flight — never a completed one. Methods are not safe for concurrent use;
// the Pool, its only writer, serializes access under its journal lock.
type Journal struct {
	f iofault.File

	size    int64 // bytes written (best effort; authoritative after sync)
	synced  int64 // bytes known durable (last successful fsync)
	wounded error // first durable-write failure; non-nil = read-only
}

// OpenJournal opens (or creates) the journal at path on the real
// filesystem; see OpenJournalFS.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(iofault.OS, path)
}

// OpenJournalFS opens (or creates) the journal at path for appending
// through fs, writing the version header when the file is new or empty. A
// file whose last line was torn by a crash (no trailing newline) is sealed
// with one first — and the seal is fsynced and error-checked, so a failure
// there surfaces immediately instead of leaving a half-sealed file behind.
func OpenJournalFS(fs iofault.FS, path string) (*Journal, error) {
	if fs == nil {
		fs = iofault.OS
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: stat checkpoint: %w", err)
	}
	j := &Journal{f: f, size: st.Size(), synced: st.Size()}
	if st.Size() == 0 {
		hdr, _ := json.Marshal(journalHeader{Kind: "journal-header", Version: journalVersion})
		// The header is not a record append: a crash while writing it
		// leaves an empty-or-torn header, which replay treats as a fresh
		// (or headerless) journal — trivially safe, so no crashpoints.
		if err := j.writeLine(append(hdr, '\n'), false); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: inspect checkpoint tail: %w", err)
	}
	if last[0] != '\n' {
		// Seal the tear. The seal itself must be durable and loud: an
		// error here means the device is refusing writes, and pretending
		// the journal is appendable would wound it on the first record.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: seal torn checkpoint line: %w", err)
		}
		iofault.Crashpoint(iofault.CPSealBeforeSync)
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: fsync torn-line seal: %w", err)
		}
		iofault.Crashpoint(iofault.CPSealAfterSync)
		j.size++
		j.synced = j.size
	}
	return j, nil
}

// Append frames, writes and fsyncs one record. On a wounded journal it
// first attempts to heal — truncate back to the last durable boundary so
// a torn partial write cannot corrupt the next record — and refuses (with
// ErrWounded) if the heal fails. An append that fails wounds the journal.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: encode checkpoint record: %w", err)
	}
	if j.wounded != nil {
		if err := j.heal(); err != nil {
			return fmt.Errorf("runner: %w (cause: %v; heal failed: %v)", ErrWounded, j.wounded, err)
		}
	}
	return j.writeLine(frameRecord(payload), true)
}

// heal truncates the file back to the last fsynced boundary, discarding
// whatever a failed append left behind. On success the journal is
// appendable again (the caller's write+fsync is the real probe).
func (j *Journal) heal() error {
	if err := j.f.Truncate(j.synced); err != nil {
		return err
	}
	j.size = j.synced
	j.wounded = nil
	return nil
}

// writeLine writes one newline-terminated line and forces it to stable
// storage, advancing the durable horizon only after a clean fsync. crash
// enables the append crashpoints (record appends only — the chaos
// harness's hit counting must see exactly one hit per record).
func (j *Journal) writeLine(line []byte, crash bool) error {
	if crash {
		iofault.Crashpoint(iofault.CPAppendBeforeWrite)
	}
	n, err := j.f.Write(line)
	j.size += int64(n)
	if err != nil {
		j.wounded = err
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	if crash {
		iofault.Crashpoint(iofault.CPAppendAfterWrite)
	}
	if err := j.f.Sync(); err != nil {
		j.wounded = err
		return fmt.Errorf("runner: fsync checkpoint: %w", err)
	}
	j.synced = j.size
	if crash {
		iofault.Crashpoint(iofault.CPAppendAfterSync)
	}
	return nil
}

// Wounded returns the first durable-write failure, or nil for a healthy
// journal.
func (j *Journal) Wounded() error { return j.wounded }

// Close closes the journal file. A healthy journal is fsynced first (and
// the error checked — records already acknowledged were each fsynced by
// Append, but this catches metadata-only failures); a wounded journal is
// just closed, its failure already surfaced by Append.
func (j *Journal) Close() error {
	if j.wounded == nil {
		if err := j.f.Sync(); err != nil {
			j.wounded = err
			j.f.Close()
			return fmt.Errorf("runner: fsync checkpoint on close: %w", err)
		}
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("runner: close checkpoint: %w", err)
	}
	return nil
}

// frameRecord wraps a JSON payload in the v2 frame:
//
//	*<crc32c hex8> <payload length> <payload>\n
//
// The leading '*' cannot begin a JSON value, so a frame is never mistaken
// for the JSON header line.
func frameRecord(payload []byte) []byte {
	crc := crc32.Checksum(payload, castagnoli)
	line := make([]byte, 0, len(payload)+20)
	line = append(line, fmt.Sprintf("*%08x %d ", crc, len(payload))...)
	line = append(line, payload...)
	return append(line, '\n')
}

// parseFrame validates a v2 frame and returns its payload.
func parseFrame(line []byte) (payload []byte, ok bool) {
	// Shortest legal frame: "*%08x 0 " (empty payload) = 12 bytes.
	if len(line) < 12 || line[0] != '*' || line[9] != ' ' {
		return nil, false
	}
	crcWant, err := strconv.ParseUint(string(line[1:9]), 16, 32)
	if err != nil {
		return nil, false
	}
	rest := line[10:]
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, false
	}
	n, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || n < 0 {
		return nil, false
	}
	payload = rest[sp+1:]
	if len(payload) != n {
		return nil, false
	}
	if crc32.Checksum(payload, castagnoli) != uint32(crcWant) {
		return nil, false
	}
	return payload, true
}

// LoadJournal reads every valid record from the journal at path on the
// real filesystem; see LoadJournalFS.
func LoadJournal(path string) (recs []Record, stats ReplayStats, err error) {
	return LoadJournalFS(iofault.OS, path)
}

// LoadJournalFS reads every valid record from the journal at path.
// Corruption is never fatal: a torn final line (the expected wound of a
// killed process) is skipped and counted, and a corrupt record anywhere
// else — CRC mismatch, length mismatch, garbage — is copied to the
// .corrupt sidecar and counted as quarantined while every other record
// replays. Losing one record costs one re-run; refusing the file would
// cost the whole sweep. A missing file yields no records and no error (a
// fresh sweep with -resume is legal). When the same key appears more than
// once the last record wins.
func LoadJournalFS(fs iofault.FS, path string) (recs []Record, stats ReplayStats, err error) {
	if fs == nil {
		fs = iofault.OS
	}
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ReplayStats{}, nil
		}
		return nil, ReplayStats{}, fmt.Errorf("runner: open checkpoint for resume: %w", err)
	}
	defer f.Close()

	var sidecar iofault.File
	defer func() {
		if sidecar != nil {
			if serr := sidecar.Sync(); serr != nil && stats.SidecarErr == nil {
				stats.SidecarErr = serr
			}
			if cerr := sidecar.Close(); cerr != nil && stats.SidecarErr == nil {
				stats.SidecarErr = cerr
			}
		}
	}()
	quarantine := func(line []byte) {
		stats.Quarantined++
		if stats.SidecarErr != nil {
			return
		}
		if sidecar == nil {
			sc, oerr := fs.OpenFile(QuarantinePath(path), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if oerr != nil {
				stats.SidecarErr = oerr
				return
			}
			sidecar = sc
		}
		iofault.Crashpoint(iofault.CPQuarantineBeforeWrite)
		if _, werr := sidecar.Write(append(line, '\n')); werr != nil {
			stats.SidecarErr = werr
		}
	}

	byKey := make(map[string]int) // key -> index in recs
	rd := bufio.NewReaderSize(f, 64*1024)
	first := true
	for {
		line, rerr := rd.ReadBytes('\n')
		torn := false
		if rerr == io.EOF {
			if len(line) == 0 {
				break
			}
			torn = true // final line has no newline: a mid-write crash
		} else if rerr != nil {
			return nil, stats, fmt.Errorf("runner: read checkpoint: %w", rerr)
		} else {
			line = line[:len(line)-1] // strip '\n'
		}
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var hdr journalHeader
			if json.Unmarshal(line, &hdr) == nil && hdr.Kind == "journal-header" {
				if hdr.Version != journalVersion {
					return nil, stats, fmt.Errorf("runner: checkpoint %s is version %d, want %d",
						path, hdr.Version, journalVersion)
				}
				continue
			}
			// Headerless journal: fall through and try the line as a record.
		}
		var rec Record
		payload, valid := parseFrame(line)
		valid = valid && json.Unmarshal(payload, &rec) == nil && rec.Key != ""
		switch {
		case valid:
			if i, ok := byKey[rec.Key]; ok {
				recs[i] = rec
			} else {
				byKey[rec.Key] = len(recs)
				recs = append(recs, rec)
			}
		case torn:
			stats.Skipped++
		default:
			quarantine(line)
		}
		if torn {
			break
		}
	}
	return recs, stats, nil
}
