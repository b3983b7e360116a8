package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestFigureCSVGolden pins every figure's CSV bytes at a small fixed scale.
// The digests were recorded before the three per-family sweep loops were
// collapsed into one engine, so a pass here is the "byte-identical figures"
// claim checked in tier-1: any change to trial expansion order, seed
// derivation, per-trial scenario overrides, repeat folding or CSV rendering
// moves a digest. A deliberate change to simulated behaviour must re-record
// them (the failure message prints the new digest and the CSV).
func TestFigureCSVGolden(t *testing.T) {
	base := Scenario{Duration: 20 * time.Second}
	sweep := SweepConfig{Base: base, Speeds: []float64{5, 15}, Repeats: 2}
	churn := ResilienceConfig{Base: base, Churn: []int{0, 2}, Repeats: 2}
	city := CityConfig{Base: base, Nodes: []int{50, 100}, Repeats: 2}

	for _, tc := range []struct {
		id     string
		gen    func() (Figure, error)
		sha256 string
	}{
		{"fig1", func() (Figure, error) { return Figure1(sweep) }, "bfc6b7edd3a61f5582dda2d4c8575c38044893b25f56b422e1b082bb5146a6d3"},
		{"fig2", func() (Figure, error) { return Figure2(sweep) }, "a142035d83fc42afde2b90e22af931fc812c65ba7bc1fd06f10ae1b79cc2afd0"},
		{"fig3", func() (Figure, error) { return Figure3(sweep) }, "c53a113a9b84ceb0618a0f3efead5cc6796e5e88c613c7ae629b8c8c8e6bbc3d"},
		{"fig4", func() (Figure, error) { return Figure4(sweep) }, "2a54f512870249535f22d593d9bd6f3888c89729b5b5a08494527f87314ac556"},
		{"fig5", func() (Figure, error) { return Figure5(sweep) }, "f2e075c200d09e88b084f2560a1b0ba25fa8ea68348868dfbcf70e376c0e0aeb"},
		{"figDSR", func() (Figure, error) { return FigureDSR(sweep) }, "2b8c6480161edd93266b96b909371276b8539c28022ce4ef53087dcae43950c1"},
		{"fig7", func() (Figure, error) { return FigureResilience(churn) }, "bf17ab780b87384c83034fa0e65ba226b26a738e695b9676459d286efbf4b19a"},
		{"fig8", func() (Figure, error) { return FigureResilienceOverhead(churn) }, "0e3d5f246e3eb3b489036b039d9b29ae24caa14ddc3aeac22891f00e7711de98"},
		{"fig9", func() (Figure, error) { return FigureCityPDR(city) }, "2c3db2cc66d3788ce987952a30b05eb7a470ec2b9c3558c49dc5969b99a89c15"},
		{"fig10", func() (Figure, error) { return FigureCityOverhead(city) }, "2f043a947bafc39b36603b2479779255500ddb106225cec16fb258c429f27f3a"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			fig, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != tc.id {
				t.Fatalf("figure ID %q, want %q", fig.ID, tc.id)
			}
			sum := sha256.Sum256([]byte(fig.CSV()))
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("%s CSV digest %s, want %s\n%s", tc.id, got, tc.sha256, fig.CSV())
			}
		})
	}
}
