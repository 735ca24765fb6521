package journal

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// binaryTestEvents is a small log exercising every kind and both string
// fields.
var binaryTestEvents = []Event{
	{Seq: 1, Kind: KindJoin, Name: "alice"},
	{Seq: 2, Kind: KindJoin, Name: "bob", Sponsor: "alice"},
	{Seq: 3, Kind: KindContribute, Name: "bob", Amount: 2.5},
	{Seq: 4, Kind: KindQuarantine, Name: "bob"},
	{Seq: 5, Kind: KindUnquarantine, Name: "bob"},
	{Seq: 6, Kind: KindContribute, Name: "alice", Amount: 0.125},
}

// TestBinaryRecordRoundTrip: encode → decode through the stream Decoder
// → re-encode must reproduce the bytes exactly (the canonical-encoding
// property replication's rolling hash depends on).
func TestBinaryRecordRoundTrip(t *testing.T) {
	var log bytes.Buffer
	w := NewWriterMode(&log, 1, ModeBinary)
	for _, e := range binaryTestEvents {
		e.Seq = 0 // Writer assigns
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	first := append([]byte(nil), log.Bytes()...)

	d := NewDecoder(bytes.NewReader(first))
	var reenc bytes.Buffer
	enc := NewEncoderMode(&reenc, ModeBinary)
	n := 0
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode record %d: %v", n+1, err)
		}
		if d.Mode() != ModeBinary {
			t.Fatalf("record %d: Mode() = %v, want binary", n+1, d.Mode())
		}
		if !e.Equal(binaryTestEvents[n]) {
			t.Fatalf("record %d = %+v, want %+v", n+1, e, binaryTestEvents[n])
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(binaryTestEvents) {
		t.Fatalf("decoded %d events, want %d", n, len(binaryTestEvents))
	}
	if !bytes.Equal(first, reenc.Bytes()) {
		t.Fatalf("re-encoded log differs from original\nfirst: %x\nreenc: %x", first, reenc.Bytes())
	}
	if d.Offset() != int64(len(first)) {
		t.Fatalf("Offset = %d, want %d", d.Offset(), len(first))
	}
}

// TestMixedFormatLog: JSON lines, heartbeats, and binary records in one
// stream — the in-place migration shape — decode in order, and
// Decoder.Mode tracks each record's own format.
func TestMixedFormatLog(t *testing.T) {
	var log bytes.Buffer
	jw := NewWriter(&log, 1) // JSON
	if _, err := jw.Append(Event{Kind: KindJoin, Name: "alice"}); err != nil {
		t.Fatal(err)
	}
	log.WriteString("\n") // heartbeat between formats
	bw := NewWriterMode(&log, 2, ModeBinary)
	if _, err := bw.Append(Event{Kind: KindContribute, Name: "alice", Amount: 1}); err != nil {
		t.Fatal(err)
	}
	jw2 := NewWriterMode(&log, 3, ModeJSON)
	if _, err := jw2.Append(Event{Kind: KindQuarantine, Name: "alice"}); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(bytes.NewReader(log.Bytes()))
	wantModes := []Mode{ModeJSON, ModeBinary, ModeJSON}
	for i, want := range wantModes {
		e, err := d.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq = %d", i+1, e.Seq)
		}
		if d.Mode() != want {
			t.Fatalf("record %d: mode = %v, want %v", i+1, d.Mode(), want)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("trailing Next = %v, want EOF", err)
	}
}

// TestWriterEncoderByteEquality: a Writer and an Encoder in the same
// mode must produce identical bytes for the same events, in both modes
// — the contract that lets a follower hash re-encoded events and match
// the primary's file.
func TestWriterEncoderByteEquality(t *testing.T) {
	for _, mode := range []Mode{ModeJSON, ModeBinary} {
		var viaWriter, viaEncoder bytes.Buffer
		w := NewWriterMode(&viaWriter, 1, mode)
		enc := NewEncoderMode(&viaEncoder, mode)
		for _, e := range binaryTestEvents {
			e.Seq = 0
			persisted, err := w.Append(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(persisted); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(viaWriter.Bytes(), viaEncoder.Bytes()) {
			t.Fatalf("%v: Writer and Encoder bytes differ", mode)
		}
	}
}

// TestBinaryTornTail: truncating a binary log mid-record yields a
// TornTailError whose Offset is the complete-record prefix, exactly as
// for a torn JSON line — the repair path is shared.
func TestBinaryTornTail(t *testing.T) {
	var log bytes.Buffer
	w := NewWriterMode(&log, 1, ModeBinary)
	var prefixAfter2, prefixAfter3 int
	for i, e := range binaryTestEvents {
		e.Seq = 0
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			prefixAfter2 = log.Len()
		}
		if i == 2 {
			prefixAfter3 = log.Len()
		}
	}
	// Truncate the log inside the third record, at every possible length.
	full := log.Bytes()
	for cut := prefixAfter2 + 1; cut < prefixAfter3; cut++ {
		events, err := Read(bytes.NewReader(full[:cut]))
		var torn *TornTailError
		if !errors.As(err, &torn) {
			t.Fatalf("cut at %d: err = %v, want torn tail", cut, err)
		}
		if torn.Offset != int64(prefixAfter2) {
			t.Fatalf("cut at %d: Offset = %d, want %d", cut, torn.Offset, prefixAfter2)
		}
		if len(events) != 2 {
			t.Fatalf("cut at %d: %d events survive, want 2", cut, len(events))
		}
	}
}

// TestBinaryCorruptTail: flipping a byte in the final record fails its
// CRC and is classified as a torn tail (repairable); the same flip
// mid-log is a hard error, because a valid record after it proves the
// damage is not an interrupted append.
func TestBinaryCorruptTail(t *testing.T) {
	var log bytes.Buffer
	w := NewWriterMode(&log, 1, ModeBinary)
	offsets := make([]int, 0, len(binaryTestEvents))
	for _, e := range binaryTestEvents {
		e.Seq = 0
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, log.Len())
	}
	full := log.Bytes()
	lastStart := offsets[len(offsets)-2]

	// Flip every byte of the final record in turn.
	for i := lastStart; i < len(full); i++ {
		data := append([]byte(nil), full...)
		data[i] ^= 0x40
		events, err := Read(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("flip at %d: corrupt record decoded cleanly", i)
		}
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("flip at %d: err = %v, want torn tail", i, err)
		}
		var torn *TornTailError
		errors.As(err, &torn)
		if torn.Offset != int64(lastStart) {
			t.Fatalf("flip at %d: Offset = %d, want %d", i, torn.Offset, lastStart)
		}
		if len(events) != len(binaryTestEvents)-1 {
			t.Fatalf("flip at %d: %d events survive, want %d", i, len(events), len(binaryTestEvents)-1)
		}
	}

	// The same flip in a record with valid records behind it must be a
	// hard error, not a repair.
	data := append([]byte(nil), full...)
	data[offsets[1]+6] ^= 0x40 // inside the third record's payload
	if _, err := Read(bytes.NewReader(data)); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("mid-log corruption: err = %v, want hard error", err)
	}
}

// TestBinaryRejectsNonCanonicalVarint: a payload-length or field varint
// padded with a redundant continuation byte must not decode, even with
// a recomputed CRC — one event, one byte representation.
func TestBinaryRejectsNonCanonicalVarint(t *testing.T) {
	rec, err := AppendBinaryRecord(nil, Event{Seq: 1, Kind: KindJoin, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// rec[1] is the one-byte payload length; re-frame with the same
	// payload but a two-byte (non-minimal) length prefix.
	payload := rec[2 : len(rec)-4]
	crc := rec[len(rec)-4:]
	padded := append([]byte{tagBinaryV1, byte(len(payload)) | 0x80, 0x00}, payload...)
	padded = append(padded, crc...)
	if _, err := Read(bytes.NewReader(padded)); err == nil {
		t.Fatal("non-canonical length prefix decoded cleanly")
	}
}

// TestBinaryRejectsOversizedLength: a declared payload length beyond
// maxBinaryPayload must fail without attempting the allocation.
func TestBinaryRejectsOversizedLength(t *testing.T) {
	data := []byte{tagBinaryV1, 0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 GiB
	data = append(data, strings.Repeat("x", 64)...)
	if _, err := Read(bytes.NewReader(data)); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("oversized length with content behind it: err = %v, want hard error", err)
	}
}

// TestBinaryEncoderRefusesOversizedPayload: the decoder rejects a
// declared payload beyond maxBinaryPayload as mid-log corruption, so
// the encoder must refuse such a record rather than write one that
// stops the journal from reading back. A refused append consumes no
// sequence number.
func TestBinaryEncoderRefusesOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterMode(&buf, 1, ModeBinary)
	if _, err := w.Append(Event{Kind: KindJoin, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	huge := Event{Kind: KindJoin, Name: strings.Repeat("x", maxBinaryPayload)}
	if _, err := w.Append(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized join append: err = %v, want size refusal", err)
	}
	if _, err := w.AppendBatch([]Event{{Kind: KindJoin, Name: "b"}, huge}); err == nil {
		t.Fatal("batch holding an oversized record was written")
	}
	if e, err := w.Append(Event{Kind: KindJoin, Name: "b"}); err != nil || e.Seq != 2 {
		t.Fatalf("append after refusals = %+v, %v; want seq 2", e, err)
	}
	events, err := Read(&buf)
	if err != nil || len(events) != 2 {
		t.Fatalf("journal reads back %d events, err %v; want 2, nil", len(events), err)
	}
}

// TestParseMode covers the flag-facing parser.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"json", ModeJSON, true},
		{"binary", ModeBinary, true},
		{"ndjson", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ModeBinary.String() != "binary" || ModeJSON.String() != "json" {
		t.Error("Mode.String mismatch")
	}
}
