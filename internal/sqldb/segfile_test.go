package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// segRow is one decoded segment row.
type segRow struct {
	local int
	row   []Value
}

// decodeSeg parses a segment file, collecting its rows.
func decodeSeg(data []byte) (table string, id int, rows []segRow, err error) {
	table, id, err = parseSegFile(data, func(local int, row []Value) error {
		rows = append(rows, segRow{local, row})
		return nil
	})
	return table, id, rows, err
}

// encodeSeg builds the segment file of a page holding rows.
func encodeSeg(table string, id int, rows []segRow) []byte {
	p := &rowPage{}
	for _, r := range rows {
		p.rows[r.local] = r.row
		p.live++
	}
	return buildSegFile(table, id, p)
}

// segRowsDiffer describes the first difference between two decoded pages,
// comparing kinds and type-tagged value encodings.
func segRowsDiffer(a, b []segRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].local != b[i].local || len(a[i].row) != len(b[i].row) {
			return fmt.Errorf("row %d: slot %d with %d cells vs slot %d with %d cells",
				i, a[i].local, len(a[i].row), b[i].local, len(b[i].row))
		}
		for j := range a[i].row {
			if a[i].row[j].Kind != b[i].row[j].Kind || a[i].row[j].Key() != b[i].row[j].Key() {
				return fmt.Errorf("row %d cell %d: %v vs %v", i, j, a[i].row[j], b[i].row[j])
			}
		}
	}
	return nil
}

// frameSeg wraps payload in a segment header with a valid length and CRC,
// so the fuzzer reaches the row decoder instead of the checksum.
func frameSeg(payload []byte) []byte {
	buf := append([]byte(segMagic), make([]byte, frameHdrLen)...)
	binary.BigEndian.PutUint32(buf[len(segMagic):], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[len(segMagic)+4:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// checkSegDecode must never panic. When data decodes, the rows it decodes
// to are a page: encoding that page must decode to the same rows again.
func checkSegDecode(t *testing.T, data []byte) {
	table, id, rows, err := decodeSeg(data)
	if err != nil {
		return
	}
	table2, id2, rows2, err := decodeSeg(encodeSeg(table, id, rows))
	if err != nil {
		t.Fatalf("re-encoded page does not decode: %v", err)
	}
	if table2 != table || id2 != id {
		t.Fatalf("re-encoded page is %s/%d, want %s/%d", table2, id2, table, id)
	}
	if err := segRowsDiffer(rows2, rows); err != nil {
		t.Fatalf("re-encoded page: %v", err)
	}
}

// FuzzParseSegFile feeds the page-segment decoder arbitrary files, and the
// same bytes as the payload of a correctly framed file. The seeds, in
// testdata/fuzz/FuzzParseSegFile, are segments written by checkpoints.
func FuzzParseSegFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegDecode(t, data)
		checkSegDecode(t, frameSeg(data))
	})
}

// randomSegRows draws a page of rows covering every value kind, including
// empty text and blobs and extreme integers.
func randomSegRows(rng *rand.Rand) []segRow {
	var rows []segRow
	for local := 0; local < pageSlots; local++ {
		if rng.Intn(3) == 0 {
			continue
		}
		row := make([]Value, rng.Intn(6))
		for i := range row {
			switch rng.Intn(5) {
			case 0:
				row[i] = Null()
			case 1:
				row[i] = Int(rng.Int63() - rng.Int63())
			case 2:
				b := make([]byte, rng.Intn(40))
				rng.Read(b)
				row[i] = Text(string(b))
			case 3:
				b := make([]byte, rng.Intn(40))
				rng.Read(b)
				row[i] = Blob(b)
			default:
				row[i] = Int(-1 << 63)
			}
		}
		rows = append(rows, segRow{local, row})
	}
	return rows
}

// TestSegFileRoundTrip encodes random pages and requires the exact rows
// back, decoded into storage that does not alias the file buffer.
func TestSegFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 50; n++ {
		rows := randomSegRows(rng)
		data := encodeSeg("tbl", n, rows)
		table, id, got, err := decodeSeg(data)
		if err != nil {
			t.Fatal(err)
		}
		if table != "tbl" || id != n {
			t.Fatalf("decoded %s/%d, want tbl/%d", table, id, n)
		}
		if err := segRowsDiffer(got, rows); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xff // the caller may reuse the buffer once decoded
		}
		if err := segRowsDiffer(got, rows); err != nil {
			t.Fatalf("decoded rows alias the file buffer: %v", err)
		}
	}
}

// TestSegFileRejectsMalformed covers the structural checks the decoder
// makes after the CRC: slot order, trailing bytes, cell counts and kinds.
func TestSegFileRejectsMalformed(t *testing.T) {
	payload := func(count uint64, body ...byte) []byte {
		p := appendString(nil, "t")
		p = appendUvarint(p, 0)
		p = appendUvarint(p, count)
		return append(p, body...)
	}
	for name, data := range map[string][]byte{
		"slots out of order": frameSeg(payload(2, 5, 0, 4, 0)),
		"duplicate slot":     frameSeg(payload(2, 5, 0, 5, 0)),
		"trailing bytes":     frameSeg(payload(1, 5, 0, 9)),
		"huge cell count":    frameSeg(payload(1, 5, 0xff, 0xff, 0xff, 0xff, 0x0f)),
		"unknown kind":       frameSeg(payload(1, 5, 1, 9)),
		"short blob":         frameSeg(payload(1, 5, 1, byte(KindBlob), 4, 1, 2)),
		"bad CRC":            append(frameSeg(payload(1, 5, 0))[:len(segMagic)+frameHdrLen], payload(1, 6, 0)...),
	} {
		if _, _, _, err := decodeSeg(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
