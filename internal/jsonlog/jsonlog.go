// Package jsonlog implements the crash-tolerant, versioned JSONL log file
// shared by the query store (internal/learn), the campaign checkpoint
// (internal/lab), the job queue (internal/server) and the lineage journal
// (internal/cli): a header line naming the format and version, then one
// JSON record per line. Appends are single complete-line writes; recovery
// keeps the longest valid prefix and truncates the rest, so a writer
// killed mid-append costs at most the line in flight.
package jsonlog

import (
	"bufio"
	"encoding/json"
	"os"
)

// header is the first line of every log.
type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// Recover scans an opened log file: it validates the header (format must
// match and the version must not exceed maxVersion) and feeds every
// complete, newline-terminated line after it to accept, which returns
// false to reject an undecodable record. Scanning stops at the first
// rejected or unterminated line — a line missing its trailing newline is
// a crashed append even when its bytes happen to parse, and accepting it
// would make the next append glue two records onto one line — and the
// invalid tail is truncated away, leaving the file positioned at the end
// of the valid prefix, ready for appends.
//
// line is a view of Recover's read buffer, valid only until accept
// returns: accept must copy whatever it keeps (decoding into fresh values,
// as json.Unmarshal does, is a copy).
//
// headerOK=false means the file was empty, foreign, or from a future
// version: nothing was read and the caller should Reset it.
func Recover(f *os.File, format string, maxVersion int, accept func(line []byte) bool) (headerOK bool, err error) {
	if _, err := f.Seek(0, 0); err != nil {
		return false, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	var long []byte
	line, rerr := readLine(r, &long)
	var hdr header
	if rerr != nil || json.Unmarshal(line, &hdr) != nil ||
		hdr.Format != format || hdr.Version > maxVersion {
		return false, nil
	}
	good := int64(len(line))
	for {
		line, rerr = readLine(r, &long)
		if rerr != nil || !accept(line) {
			break
		}
		good += int64(len(line))
	}
	if err := f.Truncate(good); err != nil {
		return true, err
	}
	_, err = f.Seek(good, 0)
	return true, err
}

// readLine returns the next line with its newline: a view of r's buffer,
// or, for a line longer than the buffer, the line assembled in *long.
// err != nil exactly when the line has no newline (a crashed append, or
// a read error).
func readLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}

// Reset empties the file down to a fresh header.
func Reset(f *os.File, format string, version int) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	b, _ := json.Marshal(header{Format: format, Version: version})
	_, err := f.Write(append(b, '\n'))
	return err
}

// Marshal renders one record as a complete log line (with the trailing
// newline), so callers can issue it as a single Write.
func Marshal(record any) ([]byte, error) {
	b, err := json.Marshal(record)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
