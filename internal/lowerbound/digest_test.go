package lowerbound

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// certificateDigests pins, for every parityConfigs configuration, the
// sha256 of every field of the certificate Run returns (certDigest), or
// of its error. A change to the adversary's bookkeeping must leave every
// choice, tie-break and certificate field as it was.
var certificateDigests = map[string]string{
	"cas-register-rw/N=16/c=2":           "af0e7ed55b8fad096e3c0ecf49cbe328ce109523ec42a06f69aeb1a7169ae4ce",
	"cas-register-rw/N=16/c=3":           "3cec1929f05286bad80b366b4f50558bf1e7920cfdbe8e7fb5fe8a00db33b36e",
	"cas-register/N=16/c=2":              "215e1027e5777e462dec40e21265d0544fc228f37591406006311f8dcb9567ed",
	"cas-register/N=16/c=3":              "7cefd5d9520070880d75e0d892e0358bd73d46de3062a9e0f9ca2ec9db8af3c8",
	"fixed-waiters-terminating/N=16/c=2": "c4bee516a528a37386847bae162fd4b5adb8012824dbb69e820e9901ea0f4798",
	"fixed-waiters/N=128/c=2":            "f38c05c4b9c8a3899fba29d30420249be435d081af23ce3fa2804fecf2c61252",
	"fixed-waiters/N=16/c=2":             "d77ae70e23acf438e9680cc9e65417f6bea3e8f6882cd015e58de46c8d71ba7a",
	"fixed-waiters/N=256/c=2":            "8ff42f4910a220407686fed8aa4911293afe20a23995202ae562dff549733b9e",
	"fixed-waiters/N=32/c=1":             "bddb823e30cf57da2e7f0155c7da5b8745f33739aab1c03adf2eb04a3b020f59",
	"fixed-waiters/N=32/c=2":             "dfa5ca08f7273e5ccd58548e3f3bea7d08bced7d92954b4f42eb93c084f21d1e",
	"fixed-waiters/N=48/c=2":             "647cf2949e3650b3782f1ee880531f479de6319a11f5fbb5f5bf42ad5af65d74",
	"fixed-waiters/N=64/c=2":             "ef25df39c55cdadc85a4429380ff8ca336b84c74d3bec0e6f845cf7d52b22797",
	"fixed-waiters/N=64/c=3":             "788f7f8fc45edba20968e27c9e1f841bd7d0daef37735b17c6fd5e37432fb173",
	"fixed-waiters/N=80/c=4":             "e097023e9c0da09548c4ced1253699529f9b99c9f7cc4e86f5ac177b2af1dfdb",
	"flag/N=16/c=2":                      "3d0e9a0790c0e583012baabd471e6493d315a9ed413121f8c4950bda3ad100ad",
	"flag/N=32/c=1":                      "59291b545270df491106f715050630cc2544ebe5e2db12b6049a87839de66488",
	"flag/N=48/c=2":                      "a4ed913c76ee757686b04c0df6308a6418dddb935258700b264d0ef4613d789c",
	"flag/N=64/c=3":                      "20322d098e1e8c97185cdb2841b1d173f6b5fadb43fa65a236ea0aed6d1ca322",
	"flag/N=80/c=4":                      "3057431b4bb3136259f6241127c28285205cb9c0810e69bbaf2d3c1558e0ae33",
	"leader-blocking/N=16/c=2":           "df49630152ff059a3a2671258c7521dca7d26af4e8cf61390c429bdbc85bdae8",
	"llsc-register-rw/N=16/c=2":          "6fec34f35008115732ab6a54d831d8aad90cb2270e0a87a9598528f50d442805",
	"llsc-register-rw/N=16/c=3":          "c38741204fcdba64a7446521576941973cf6feabf40b145ac68c5eda6b2a52ec",
	"llsc-register/N=16/c=2":             "5e529d177262a764cc41ca36c2bcc6575751dfeede5cc543621e48ccade70b8c",
	"llsc-register/N=16/c=3":             "4bda134e18092fc105e2d461afdb407b3ec85ee0f83204c3767c93a70aafb10d",
	"multi-signaler/N=16/c=2":            "382eab4dbb91822cc18d86de53a7d4e560d4617e9aa7c2c59bbeb3dde722e668",
	"multi-signaler/N=16/c=3":            "91a963e7c5577e8aecfa8cb94489630eb4c0505ab40b7e923e3b1e550b7e0473",
	"queue/N=16/c=2":                     "0ac05fdcec8acb0d1007214e6cee0cca51587d8830ca4f8d3f45bfa890666217",
	"queue/N=16/c=3":                     "8279b1ff4103b83cecef76c8562826e1fa9624b1f36efdade7feac0d5a00a863",
	"registered-waiters/N=16/c=2":        "781cc7d22afba1bc96197beb014cc90e25ce530399e94cbc41841f00d0244b66",
	"single-waiter/N=16/c=2":             "3ea18026680bdee262d535dc1c6698569848a6ea5d1bac277d62282228b03ef7",
}

// certDigest hashes every field of c, in declaration order, with slice
// lengths and nil-ness included.
func certDigest(c *Certificate) string {
	h := sha256.New()
	fmt.Fprintf(h, "verdict=%d c=%d k=%d total=%d signaler=%d signalerRMRs=%d stable=%d\n",
		c.Verdict, c.C, c.K, c.TotalRMRs, c.SignalerPID, c.SignalerRMRs, c.StableWaiters)
	fmt.Fprintf(h, "rounds=%d nil=%t\n", len(c.Rounds), c.Rounds == nil)
	for _, r := range c.Rounds {
		fmt.Fprintf(h, "round %d %d %d %d %d %q\n", r.Round, r.Active, r.Stable, r.Erased, r.Finished, r.Case)
	}
	fmt.Fprintf(h, "detail=%q regular=%t\n", c.Detail, c.Regular)
	fmt.Fprintf(h, "events=%d nil=%t\n", len(c.Events), c.Events == nil)
	for _, ev := range c.Events {
		fmt.Fprintf(h, "ev %d %d %d %d %q %d %d %d %d %d %t %t %d %d\n",
			ev.Seq, ev.Kind, ev.PID, ev.CallSeq, ev.Proc,
			ev.Acc.Op, ev.Acc.Addr, ev.Acc.Arg1, ev.Acc.Arg2,
			ev.Res.Val, ev.Res.OK, ev.Res.Wrote, ev.Ret, ev.Fault)
	}
	fmt.Fprintf(h, "processes=%d owners=%d nil=%t\n", c.Processes, len(c.Owners), c.Owners == nil)
	for _, o := range c.Owners {
		fmt.Fprintf(h, "%d ", o)
	}
	fmt.Fprintln(h)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCertificateDigest: for every parityConfigs configuration, Run's
// certificate (or error) hashes to its pinned digest.
func TestCertificateDigest(t *testing.T) {
	for _, cfg := range parityConfigs() {
		name := fmt.Sprintf("%s/N=%d/c=%d", cfg.Algorithm.Name, cfg.N, cfg.C)
		t.Run(name, func(t *testing.T) {
			var got string
			cert, err := Run(cfg)
			if err != nil {
				sum := sha256.Sum256([]byte("error: " + err.Error()))
				got = hex.EncodeToString(sum[:])
			} else {
				got = certDigest(cert)
			}
			want, ok := certificateDigests[name]
			if !ok {
				t.Fatalf("no pinned digest; got %q", got)
			}
			if got != want {
				t.Errorf("certificate digest %s, pinned %s", got, want)
			}
		})
	}
}
