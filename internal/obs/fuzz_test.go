package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"armsefi/internal/core/fault"
	"armsefi/internal/mem"
)

// FuzzReadRecords feeds arbitrary bytes through the JSONL trace reader,
// which tracestat and the campaign service run on traces from disk and
// the network: it must return records or an error, never panic; whatever
// it accepts must summarise without panicking and survive a re-encode
// as a fixed point.
func FuzzReadRecords(f *testing.F) {
	var seed bytes.Buffer
	for _, r := range []Record{
		{Kind: KindInjection, Seq: 1, Workload: "crc32", Comp: fault.CompL1D, Bit: 77, Cycle: 1200,
			Outcome: "power-off", Class: fault.ClassMasked, Valid: true, Mechanism: "overwritten", Predicted: true},
		{Kind: KindStrike, Seq: 2, Workload: "qsort", Comp: fault.CompL2, Class: fault.ClassSDC, Weight: 0.25,
			ProvEvents: []mem.ProbeEvent{{Kind: mem.ProbeRead, Cycle: 9}}},
		{Kind: KindShard, Seq: 3, Campaign: "c1", Shard: 2, Node: "n", Span: 5, Event: "claimed", Items: 8},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		seed.Write(b)
		seed.WriteByte('\n')
	}
	f.Add(seed.Bytes())
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"kind":"injection","comp":"bogus"}`))
	f.Add([]byte(`{"kind":"injection","comp":3,"class":9,"seq":-1}`))
	f.Add([]byte("{\"seq\":1}\n{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		Summarize(recs)
		// Decoding may normalise (an empty list and an absent one read
		// alike), so the encoding of what was accepted must be a fixed
		// point: re-reading it yields the same encoding.
		enc := encodeRecords(t, recs)
		back, err := ReadRecords(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading accepted records: %v", err)
		}
		if again := encodeRecords(t, back); !bytes.Equal(again, enc) {
			t.Fatalf("records changed across a re-encode:\n%s\n%s", enc, again)
		}
	})
}

func encodeRecords(t *testing.T, recs []Record) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("encoding %+v: %v", r, err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
