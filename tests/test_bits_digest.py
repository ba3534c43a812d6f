import bits_digest

# one case of each kind: a moved value, a removed and an added channel, a
# repr-only change; scenario 0's general envelope peaks at 2.0
DUMP_A = """\
0	envelope general	0	value	np.float64(2.0)
0	envelope general	1	value	np.float64(1.0)
0	envelope general	2	value	np.float64(0.5)
0	envelope general	2	alpha1	7.5
0	envelope general	1	q2	np.float64(3.0)
0	elastic_born general	-	value	1.25
"""
DUMP_B = """\
0	envelope general	0	value	np.float64(2.0)
0	envelope general	-1	value	np.float64(0.25)
0	envelope general	1	value	np.float64(1.5)
0	envelope general	1	q2	3.0
0	elastic_born general	-	value	1.25
"""


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.dump", tmp_path / "b.dump"
    pa.write_text(a)
    pb.write_text(b)
    return bits_digest.compare(pa, pb)


def test_compare_matches_values_by_key(tmp_path):
    got = _compare(tmp_path, DUMP_A, DUMP_B)
    assert got == {
        "compared": 4, "moved": 1, "repr_only": 1, "added": 1, "removed": 2,
        "worst_moved": (0.25, ("0", "envelope general", "1", "value")),
        "worst_removed": (0.25, ("0", "envelope general", "2", "value")),
    }


def test_compare_of_a_dump_with_itself(tmp_path):
    got = _compare(tmp_path, DUMP_A, DUMP_A)
    assert got["compared"] == 6
    counts = (got["moved"], got["repr_only"], got["added"], got["removed"])
    assert counts == (0, 0, 0, 0)
    assert got["worst_moved"] == got["worst_removed"] == (0.0, None)


def test_compare_counts_changed_error_text_as_moved(tmp_path):
    a = "3\tpartial general\t4\terror\tchannel n=4 is closed\n"
    b = "3\tpartial general\t4\terror\tanother message\n"
    got = _compare(tmp_path, a, b)
    assert (got["moved"], got["repr_only"]) == (1, 0)
    assert got["worst_moved"][0] == float("inf")


def test_compare_scales_only_cross_sections_by_the_peak(tmp_path):
    # q2 in eV^2 and alpha1 move by far more than the peak (2.0) in bohr^2;
    # they are reported relative to themselves, not over the peak
    b = (DUMP_A.replace("2\talpha1\t7.5", "2\talpha1\t7.500000000000001")
         .replace("1\tq2\tnp.float64(3.0)", "1\tq2\t3.0000000003"))
    got = _compare(tmp_path, DUMP_A, b)
    assert (got["moved"], got["worst_moved"]) == (2, (0.0, None))
    ratio, key = bits_digest.worst_relative(tmp_path / "a.dump",
                                            tmp_path / "b.dump")
    assert key == ("0", "envelope general", "1", "q2")
    assert ratio == abs(3.0000000003 - 3.0) / 3.0
    assert bits_digest.worst_relative(tmp_path / "a.dump",
                                      tmp_path / "a.dump") == (0.0, None)
