package collab

import (
	"encoding/json"
	"testing"
)

// TestJSONBodyGolden pins the JSON bodies of the wire byte for byte: the
// /v1/infer reply, fully populated and with every omitempty field absent,
// and one /v1/models entry. An independent client decodes these, so a
// renamed tag, a reordered field or a lost omitempty is a wire break.
func TestJSONBodyGolden(t *testing.T) {
	agree, tau := true, 0.625
	cases := []struct {
		name string
		body any
		want string
	}{
		{"infer full", InferResponse{
			Model: "demo", Version: "0123456789ab", Pred: 3, Preds: []int{3, 1},
			Probs: []float32{0.25, 0.75}, ServerMicros: 1200, Codec: "q8", PayloadBytes: 1514,
			Stages:    &StageMicros{Read: 1, Decode: 2, Queue: 3, BatchWait: 4, Forward: 5},
			RequestID: "req-1", BinaryAgree: &agree, Tau: &tau,
		}, `{"model":"demo","version":"0123456789ab","pred":3,"preds":[3,1],` +
			`"probs":[0.25,0.75],"server_micros":1200,"codec":"q8","payload_bytes":1514,` +
			`"stages":{"read_micros":1,"decode_micros":2,"queue_micros":3,"batch_wait_micros":4,"forward_micros":5},` +
			`"request_id":"req-1","binary_agree":true,"tau":0.625}`},
		{"infer minimal", InferResponse{Model: "demo"},
			`{"model":"demo","pred":0,"probs":null,"server_micros":0}`},
		{"unbatched stages", StageMicros{Read: 7, Forward: 9},
			`{"read_micros":7,"decode_micros":0,"queue_micros":0,"forward_micros":9}`},
		{"model info", ModelInfo{
			Name: "demo", Arch: "alexnet", Classes: 10, BundleBytes: 2870000,
			InC: 3, InH: 32, InW: 32, Codecs: []string{"raw", "f16", "q8"},
			Version: "0123456789ab", Versions: []string{"0123456789ab", "ba9876543210"}, HasPack: true,
		}, `{"name":"demo","arch":"alexnet","classes":10,"bundle_bytes":2870000,` +
			`"in_c":3,"in_h":32,"in_w":32,"codecs":["raw","f16","q8"],` +
			`"version":"0123456789ab","versions":["0123456789ab","ba9876543210"],"has_pack":true}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Fatalf("%s body\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
