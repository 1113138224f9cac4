package wal

import (
	"slices"
	"strconv"

	"repro/internal/jsonrec"
	"repro/internal/store"
)

// A tx record is encoded by appending to one buffer. The bytes are the
// ones json.Marshal gives for record{LSN, Kind: kindTx, Ops: …} — decode,
// replay, shipping and a log written before this encoder existed all read
// the same format — writing each row and key with store.Row's own
// encoder instead of building the opDocs Marshal needs first
// (FuzzTxRecordEncoding holds the two equal).
//
// A record body is the payload with room in front for its LSN instead of
// the LSN itself: `,"kind":…}` starting at lsnRoom. The body is built
// before the log's mutex is taken, into the buffer of the recycled
// pending that carries it (wal.go); only the LSN is written under it.

const (
	lsnKey  = `{"lsn":`
	lsnRoom = len(lsnKey) + 20 // a uint64 has at most 20 digits
)

// withLSN completes a record body into its payload.
func withLSN(body []byte, lsn uint64) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], lsn, 10)
	start := lsnRoom - len(d) - len(lsnKey)
	copy(body[start:], lsnKey)
	copy(body[start+len(lsnKey):], d)
	return body[start:]
}

// ddlBody is the record body of a DDL record, by way of json.Marshal,
// written into dst's storage.
func ddlBody(dst []byte, r record) ([]byte, error) {
	r.LSN = 0
	raw, err := encodeRecord(r)
	if err != nil {
		return nil, err
	}
	return append(append(dst[:0], make([]byte, lsnRoom)...), raw[len(lsnKey)+1:]...), nil
}

// txBody is the record body of one atomic unit of row mutations,
// written into dst's storage (grown to fit when it is too small).
func txBody(dst []byte, ops []store.LoggedOp) ([]byte, error) {
	size := lsnRoom + 32
	for _, op := range ops {
		size += 48 + len(op.Table) + op.Row.SizeHint() + op.Key.SizeHint()
	}
	b := append(slices.Grow(dst[:0], size)[:lsnRoom], `,"kind":"tx"`...)
	var err error
	for i, op := range ops {
		if i == 0 {
			b = append(b, `,"ops":[`...)
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"table":`...)
		b = jsonrec.AppendString(b, op.Table)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, int64(op.Op), 10)
		if op.Row.Len() > 0 {
			if b, err = op.Row.AppendJSON(append(b, `,"row":`...)); err != nil {
				return nil, err
			}
		}
		if op.Key.Len() > 0 {
			if b, err = op.Key.AppendKeyJSON(append(b, `,"key":`...)); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	if len(ops) > 0 {
		b = append(b, ']')
	}
	return append(b, '}'), nil
}
