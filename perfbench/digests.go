package main

// defaultSeed is the seed whose plan digests are recorded below.
const defaultSeed = 1

// defaultSeedDigests maps each in-process workload to the SHA-256 of its
// campaigns' .Workloads JSON at defaultSeed, one per plan (for
// paper-pipeline: the beam and injection Workloads and the FIT
// comparisons together; for service-remote: an in-process gefin.Run of
// the same config and plan, which the remote Result must equal). A
// program change that alters any campaign outcome fails the benchmark
// until the digests are re-recorded here from the "plan digests" line a
// default-seed run prints to standard error.
var defaultSeedDigests = map[string][]string{
	"paper-pipeline": {
		"eaa86ad5edbaa5d7f93bad1eff5c2c1cfee551e51b49bcdcb1df316398a99374",
		"424f223f1ee4b606e816f531b00e30aef782bb945486cb86625b847dabd67cc5",
		"7b2c94c41f01b81ee39d59d913fa34ef8b772a70b6eb172a0ad80b936da19225",
		"b681ef5c6d2a3deeda12e4ec9b58fcee00b8f4a8e2da6caaf656f4c103baf7c6",
		"5b481e8b1e5923eb9c75e8ddf498bbe74bf4a4da9c224b6fb7a199ffbdc7e9cb",
		"c8f5dbda81249805185b5a03a10f3bdadd8ddee37bbacb4871f2c9f28465f41a",
		"cbc01157f004bd33f65453a246be2778c71a3641c639015ecdce57d4ae16e4b0",
		"b6ab244b389ac02ffb6cc88be9833ee430e37addb4d6aa3082a20376344369bd",
	},
	"service-remote": {
		"d4f0ba9280f32ce845e846d326ac869d75c44681a114c5903e4b5e5e826b1841",
		"ca67a63e738670c117fa5eef88208f55e666c93bc5e34769f0448ace79d516f1",
		"92055d73547af2dcd58bdee0f58567b64686b51cd3cc60970c6cfd917fb8c8e1",
		"a0c6fae1405035f43785cc314c694c245998fb4d78f11dd7dbc77f8e5c675ad7",
		"cda3a3ca05e6c1c640e7f09f3992a41f0a5429c68d3733bd6f11b8754c69c5d5",
		"8224ff46e1b42a6a9f09b8d91c1e5b8f6e8691268649ed7eed3bf324b50a8a84",
		"64021ecc1591e709026710db7f28829cd358736167b5191fcc9cf5d000cbdaee",
		"75ab5f2c844b80f3a6fecfe0297534353484662f99bc41fcef135d8e21595c89",
	},
	"suite-triage": {
		"4942fd80c5b92da93359edffe09c0068f0deabd1552ecba38ce2bb0d5a6c0681",
		"268c17c3c7c4d7eac9fb2136ecafe0a3c1b36cf90e34d372b8e4f0d2ce67cdf8",
		"0ccbd6960017b29faa1d5cd1368d5fa2073ff5944e28b3ee6e4bc77c2d345cda",
		"1c774b76b8b95fd43c4515309fd8f7fd326fba28a7670d0debfe52bf563f97be",
		"db5aa079105053f5e41f20a69f97edf585a506549e666270b218370053c803ef",
		"bf45bbba59efe906ce71fad91c54f17366cb592038879294a353d5283bebc1c0",
		"ba03c7434e30cb5fa35e7df0125ff165ac150930fe7249c357c82a36ffe3bba6",
		"383f838604dc75831f4a52e7c11e92a9a660c23f666aef9432005701b485a99d",
	},
}
