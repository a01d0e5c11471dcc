import os

import readgauge
from readgauge.data_files import write_default_resources

BUNDLED = os.path.join(os.path.dirname(readgauge.__file__), "data")


def test_generated_resources_equal_bundled_files(tmp_path):
    paths = write_default_resources(str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths.values()) == sorted(os.listdir(BUNDLED))
    for path in paths.values():
        with open(path, "rb") as generated, open(os.path.join(BUNDLED, os.path.basename(path)), "rb") as bundled:
            assert generated.read() == bundled.read(), path
