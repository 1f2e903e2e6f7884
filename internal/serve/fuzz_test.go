package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreReplay feeds arbitrary manifest and shard-log bytes through
// LoadManifest, Replay and Recover. Neither may panic, and whatever
// Replay accepts must follow the checksum rules, checked against an
// independent reading of the log: the kept prefix ends on a record
// boundary and holds only parseable, current-version, CRC-valid records;
// the dropped tail is at most one line; the first completion of a shard
// wins; and Recover truncates exactly the dropped tail, after which the
// log replays clean to the same completions. A refused log is never
// modified.
func FuzzStoreReplay(f *testing.F) {
	man := &Manifest{Version: StoreVersion, ID: "c1", Kind: KindInjection, Workloads: []string{"crc32"}}
	for i := 0; i < 3; i++ {
		man.Shards = append(man.Shards, Shard{Workload: "crc32", Lo: i, Hi: i + 1})
	}
	manData, err := json.Marshal(man)
	if err != nil {
		f.Fatal(err)
	}
	var clean []byte
	for i, rec := range []logRecord{
		{V: StoreVersion, Type: "shard", Shard: 0, Node: "a", Span: 1, Payload: json.RawMessage(`{"inj_meta":{"GoldenCycles":10}}`)},
		{V: StoreVersion, Type: "shard", Shard: 2, Node: "b", Span: 2, Payload: json.RawMessage(`{"inj_meta":{"GoldenCycles":12}}`)},
		{V: StoreVersion, Type: "shard", Shard: 0, Node: "c", Span: 3, Payload: json.RawMessage(`{"inj_meta":{"GoldenCycles":10}}`)},
		{V: StoreVersion, Type: "event", Event: "cancelled"},
	} {
		rec.CRC = rec.checksum()
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatalf("record %d: %v", i, err)
		}
		clean = append(append(clean, line...), '\n')
	}
	f.Add(manData, clean)
	f.Add(manData, clean[:len(clean)-7])                                   // torn tail
	f.Add(manData, bytes.Replace(clean, []byte(`"b"`), []byte(`"x"`), 1))  // CRC mismatch mid-log
	f.Add(manData, append(append([]byte{}, clean...), `{"v":99}`+"\n"...)) // version skew
	f.Add([]byte(`{"version":1,"id":"c1"`), clean)                         // unreadable manifest
	f.Add(manData, []byte("\n\n"))

	f.Fuzz(func(t *testing.T, manBytes, logBytes []byte) {
		s, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		const id = "c1"
		if err := os.MkdirAll(s.dir(id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.manifest(id), manBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.logPath(id), logBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := s.LoadManifest(id)
		if err != nil {
			m = nil // Replay also runs without a manifest
		}

		rep, err := s.Replay(id, m)
		if err != nil {
			if _, rerr := s.Recover(id, m); rerr == nil {
				t.Fatalf("Replay refused the log (%v) but Recover accepted it", err)
			}
			if got, _ := os.ReadFile(s.logPath(id)); !bytes.Equal(got, logBytes) {
				t.Fatal("Recover modified a refused log")
			}
			return
		}

		keep := len(logBytes) - rep.TornBytes
		if rep.TornBytes < 0 || keep < 0 {
			t.Fatalf("torn %d bytes of a %d-byte log", rep.TornBytes, len(logBytes))
		}
		if keep > 0 && logBytes[keep-1] != '\n' {
			t.Fatalf("kept prefix of %d bytes does not end on a record boundary", keep)
		}
		if tail := logBytes[keep:]; bytes.IndexByte(tail, '\n') >= 0 && bytes.IndexByte(tail, '\n') != len(tail)-1 {
			t.Fatalf("dropped %d bytes spanning more than one line", len(tail))
		}
		done, dups, cancelled := map[int]json.RawMessage{}, 0, false
		for _, line := range bytes.SplitAfter(logBytes[:keep], []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec logRecord
			if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
				t.Fatalf("kept an unparseable record %q: %v", line, err)
			}
			if rec.V != StoreVersion || rec.CRC != rec.checksum() {
				t.Fatalf("kept record %q: version %d, crc %d (want %d)", line, rec.V, rec.CRC, rec.checksum())
			}
			switch rec.Type {
			case "shard":
				if m != nil && (rec.Shard < 0 || rec.Shard >= len(m.Shards)) {
					t.Fatalf("kept shard %d outside the manifest's %d shards", rec.Shard, len(m.Shards))
				}
				if _, dup := done[rec.Shard]; dup {
					dups++
				} else {
					done[rec.Shard] = rec.Payload
				}
			case "event":
				cancelled = cancelled || rec.Event == "cancelled"
			default:
				t.Fatalf("kept a record of unknown type %q", rec.Type)
			}
		}
		if len(done) != len(rep.Done) || dups != rep.Duplicates || cancelled != rep.Cancelled {
			t.Fatalf("replay: %d done, %d duplicates, cancelled %v; independent reading: %d, %d, %v",
				len(rep.Done), rep.Duplicates, rep.Cancelled, len(done), dups, cancelled)
		}
		for shard, p := range done {
			if !bytes.Equal(rep.Done[shard], p) {
				t.Fatalf("shard %d: replay kept payload %q, first record holds %q", shard, rep.Done[shard], p)
			}
		}

		if _, err := s.Recover(id, m); err != nil {
			t.Fatalf("Recover refused a log Replay accepted: %v", err)
		}
		got, err := os.ReadFile(filepath.Join(s.dir(id), "shards.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, logBytes[:keep]) {
			t.Fatalf("Recover left %d bytes, want the %d-byte kept prefix", len(got), keep)
		}
		again, err := s.Replay(id, m)
		if err != nil || again.TornBytes != 0 || len(again.Done) != len(rep.Done) {
			t.Fatalf("recovered log replays to %+v, %v", again, err)
		}
	})
}
