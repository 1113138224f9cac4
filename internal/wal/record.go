// Package wal is the durability subsystem of the SyD device store: a
// segmented, CRC32-checksummed, length-prefixed append-only log with
// group commit, checkpointing, and torn-tail-tolerant crash recovery.
//
// The paper's prototype delegated durability of the calendar and link
// databases to Oracle 8i (§5.3); our portable substitution
// (internal/store) is in-memory, so without this package a device
// crash loses every committed meeting, link, and waiting-link row —
// exactly the state the two-phase mark-and-lock protocol (§4.3) works
// to keep consistent. A wal.Durable wraps a store.DB: every committed
// mutation (DDL and row changes, multi-row transactions framed as one
// atomic record) is appended to the log before the mutating call
// returns, a checkpoint writes the store's deterministic snapshot and
// trims log segments below it, and Open replays snapshot + log tail
// after a crash, skipping incomplete trailing records.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/store"
)

// Record kinds.
const (
	kindTable = "table" // CreateTable DDL
	kindIndex = "index" // CreateIndex DDL
	kindTx    = "tx"    // one atomic unit of row mutations
)

// record is one log entry. A record is the unit of atomicity: it is
// either fully on disk with a valid checksum or it is (part of) the
// torn tail and recovery discards it.
type record struct {
	LSN  uint64 `json:"lsn"`
	Kind string `json:"kind"`

	// kindTable
	Schema *schemaDoc `json:"schema,omitempty"`
	// kindIndex
	Table string `json:"table,omitempty"`
	Col   string `json:"col,omitempty"`
	// kindTx
	Ops []opDoc `json:"ops,omitempty"`
}

type schemaDoc struct {
	Name    string      `json:"name"`
	Columns []columnDoc `json:"columns"`
	Key     []string    `json:"key"`
}

type columnDoc struct {
	Name string `json:"name"`
	Type int    `json:"type"`
}

// opDoc is one decoded row mutation. Its values stay the JSON text
// they were written as until docToOp reads each one for its column's
// type, so a number keeps every digit.
type opDoc struct {
	Table string                     `json:"table"`
	Op    int                        `json:"op"`
	Row   map[string]json.RawMessage `json:"row,omitempty"`
	Key   []json.RawMessage          `json:"key,omitempty"`
}

func schemaToDoc(s store.Schema) *schemaDoc {
	doc := &schemaDoc{Name: s.Name, Key: append([]string(nil), s.Key...)}
	for _, c := range s.Columns {
		doc.Columns = append(doc.Columns, columnDoc{Name: c.Name, Type: int(c.Type)})
	}
	return doc
}

func docToSchema(doc *schemaDoc) store.Schema {
	s := store.Schema{Name: doc.Name, Key: append([]string(nil), doc.Key...)}
	for _, c := range doc.Columns {
		s.Columns = append(s.Columns, store.Column{Name: c.Name, Type: store.ColType(c.Type)})
	}
	return s
}

// docToOp decodes a mutation against the schemas in db (the table must
// exist by the time its ops replay — its DDL record or the checkpoint
// snapshot precedes them in the log).
func docToOp(db *store.DB, doc opDoc) (store.LoggedOp, error) {
	t, err := db.Table(doc.Table)
	if err != nil {
		return store.LoggedOp{}, err
	}
	op := store.LoggedOp{Table: doc.Table, Op: store.Op(doc.Op)}
	if doc.Row != nil {
		op.Row = t.NewRow()
		for c, raw := range doc.Row {
			if err := op.Row.SetJSON(c, raw); err != nil {
				return store.LoggedOp{}, fmt.Errorf("wal: replay %s.%s: %w", doc.Table, c, err)
			}
		}
	}
	if len(doc.Key) > 0 {
		key := t.Schema().Key
		if len(doc.Key) != len(key) {
			return store.LoggedOp{}, fmt.Errorf("wal: replay %s: got %d key values, schema wants %d", doc.Table, len(doc.Key), len(key))
		}
		op.Key = t.NewRow()
		for i, raw := range doc.Key {
			if err := op.Key.SetJSON(key[i], raw); err != nil {
				return store.LoggedOp{}, fmt.Errorf("wal: replay %s key %s: %w", doc.Table, key[i], err)
			}
		}
	}
	return op, nil
}

// Framing: every record is [4B big-endian payload length][4B IEEE
// CRC32 of payload][payload]. A reader stops at the first frame that
// is short, oversized, or fails its checksum — that is the torn tail.

const (
	frameHeader = 8
	// maxPayload rejects garbage lengths in corrupt headers before any
	// allocation happens.
	maxPayload = 16 << 20
)

// errTorn marks the end of the valid log prefix. It is internal: scan
// reports it via the torn flag, never to callers.
var errTorn = errors.New("wal: torn or corrupt record")

// appendFrame appends the framed payload to buf and returns it.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// nextFrame parses one frame from data. It returns the payload and the
// total bytes consumed, io.EOF at a clean end, or errTorn when the
// remaining bytes do not form a complete valid frame.
func nextFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) == 0 {
		return nil, 0, io.EOF
	}
	if len(data) < frameHeader {
		return nil, 0, errTorn
	}
	size := binary.BigEndian.Uint32(data[0:4])
	if size == 0 || size > maxPayload {
		return nil, 0, errTorn
	}
	end := frameHeader + int(size)
	if len(data) < end {
		return nil, 0, errTorn
	}
	payload = data[frameHeader:end]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, 0, errTorn
	}
	return payload, end, nil
}

// encodeRecord marshals a record payload.
func encodeRecord(r record) ([]byte, error) {
	return json.Marshal(r)
}

// decodeRecord unmarshals a record payload.
func decodeRecord(payload []byte) (record, error) {
	var r record
	if err := json.Unmarshal(payload, &r); err != nil {
		return record{}, fmt.Errorf("wal: decode record: %w", err)
	}
	return r, nil
}
