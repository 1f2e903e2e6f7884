package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
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

// fuzzCoordinator opens a coordinator on a fresh temporary store.
func fuzzCoordinator(t *testing.T) (*Coordinator, *Store) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return c, store
}

// FuzzTelemetryBatch feeds arbitrary bytes, decoded as a telemetry
// batch, to Coordinator.Telemetry — the boundary every worker node
// writes through. It must not panic, and the merged fleet trace of the
// campaign the batch may name must still read back through
// obs.ReadRecords, both as stored and as served.
func FuzzTelemetryBatch(f *testing.F) {
	for _, b := range []TelemetryBatch{
		{Node: "n1", Seq: 1, Rate: 2.5, Items: 3, Shards: 1, RenewNS: []int64{1500}, Records: []obs.Record{
			{Kind: obs.KindInjection, Campaign: "c1", Workload: "crc32", Comp: fault.CompL1D, Bit: 7, Cycle: 99, Class: fault.ClassSDC},
			{Kind: obs.KindShard, Campaign: "c1", Shard: 0, Node: "n1", Span: 4},
			{Kind: obs.KindInjection, Campaign: "c1", Predicted: true},
			{Kind: obs.KindStrike, Campaign: "nosuch"},
		}},
		{Node: "n2", Seq: 3, Records: []obs.Record{{Kind: obs.KindConvergence, Campaign: "c1"}}},
		{Node: "n1", Records: []obs.Record{{Kind: obs.KindInjection, Campaign: "../c1", Dedup: true}}},
	} {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"node":"n","records":[{"kind":"injection","campaign":"c1","class":255}]}`))
	f.Add([]byte(`{"node":"","seq":-1}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b TelemetryBatch
		if json.Unmarshal(data, &b) != nil {
			return
		}
		c, store := fuzzCoordinator(t)
		man := &Manifest{ID: "c1", Kind: KindInjection, Workloads: []string{"crc32"}, Shards: []Shard{{Workload: "crc32", Lo: 0, Hi: 1}}}
		if _, err := c.Submit(man); err != nil {
			t.Fatal(err)
		}
		if err := c.Telemetry(&b); err != nil {
			t.Fatalf("Telemetry refused a decoded batch: %v", err)
		}
		stored, err := store.ReadTrace("c1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ReadRecords(bytes.NewReader(stored)); err != nil {
			t.Fatalf("stored trace does not read back: %v", err)
		}
		var served bytes.Buffer
		if err := c.WriteTrace("c1", &served); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ReadRecords(&served); err != nil {
			t.Fatalf("served trace does not read back: %v", err)
		}
	})
}

// FuzzSubmit POSTs arbitrary bodies to the campaign submission endpoint.
// The handler must answer 201 or a 4xx, never panic, and the manifest of
// an accepted campaign must round-trip: the stored copy LoadManifest
// reads back is the one the coordinator queued.
func FuzzSubmit(f *testing.F) {
	f.Add([]byte(`{"kind":"injection","injection":{"Seed":7,"FaultsPerComponent":2,"Components":[1,5]},"workloads":["crc32"]}`))
	f.Add([]byte(`{"kind":"injection","injection":{"FaultsPerComponent":3},"workloads":["crc32","qsort"],"shard_size":2}`))
	f.Add([]byte(`{"kind":"beam","beam":{"BeamHours":0.5,"Seed":3},"workloads":["fft"]}`))
	f.Add([]byte(`{"kind":"injection","injection":{"FaultsPerComponent":4611686018427387904},"workloads":["crc32"],"shard_size":1}`))
	f.Add([]byte(`{"kind":"injection","injection":{"FaultsPerComponent":1000000000},"workloads":["crc32"],"shard_size":1}`))
	f.Add([]byte(`{"kind":"injection","injection":{"FaultsPerComponent":-5},"workloads":["crc32"]}`))
	f.Add([]byte(`{"kind":"injection","injection":{"Exhaustive":true},"workloads":["crc32"]}`))
	f.Add([]byte(`{"kind":"injection","workloads":["crc32","crc32"]}`))
	f.Add([]byte(`{"kind":"nosuch","workloads":["crc32"]}`))
	f.Add([]byte(`{"kind":`))

	f.Fuzz(func(t *testing.T, body []byte) {
		c, store := fuzzCoordinator(t)
		rec := httptest.NewRecorder()
		Handler(c, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/campaigns", bytes.NewReader(body)))
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusCreated:
			t.Fatalf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		var resp struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.ID == "" {
			t.Fatalf("201 without an id: %q (%v)", rec.Body.String(), err)
		}
		loaded, err := store.LoadManifest(resp.ID)
		if err != nil {
			t.Fatalf("accepted manifest does not load: %v", err)
		}
		c.mu.Lock()
		queued := c.camps[resp.ID].man
		c.mu.Unlock()
		want, err := json.Marshal(queued)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stored manifest %s != queued %s", got, want)
		}
	})
}
