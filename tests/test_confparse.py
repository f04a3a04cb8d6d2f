"""Config-file parser (M21) vs Larbin's two shipped conf files.

The conf texts are in-repo copies under ``tests/data/`` (``larbin.conf``,
``larbin-test.conf``), rebuilt from FIXTURES.md §F7, SURVEY.md and
``config.py``; see each file's header for what is a stand-in.
``test_shipped_conf_matches_copy`` cross-checks each copy against the
upstream file wherever an upstream Larbin checkout is present.
"""

import os

import pytest

from larbin_ray.kernels.confparse import parse_larbin_conf

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
# the upstream Larbin source tree the repo's docs cite (src/global.cxx, ...)
UPSTREAM_DIR = "/root/reference"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_parses_shipped_larbin_conf():
    cfg, seeds = parse_larbin_conf(_read(os.path.join(DATA_DIR, "larbin.conf")))
    assert seeds == ["http://www.csdn.net/"]
    assert cfg.user_agent == "larbin_2.6.5"
    assert cfg.sender == "larbin@unspecified.mail"
    assert cfg.wait_duration == 60
    assert cfg.nb_conn == 100 and cfg.dns_conn == 5
    assert cfg.depth_in_site == 5 and cfg.depth_by_site
    assert len(cfg.forbidden_extensions) == 39
    assert ".tar" in cfg.forbidden_extensions
    assert cfg.content_types == ("audio/mpge", "image/jpeg")
    assert cfg.privileged_exts == (".mp3", ".jpg")
    assert not cfg.specific_search   # conf has the block but not the flag


def test_parses_test_conf_flags():
    cfg, seeds = parse_larbin_conf(_read(os.path.join(DATA_DIR, "larbin-test.conf")))
    # larbin-test.conf enables the kitchen sink (SURVEY.md §5)
    assert cfg.punycode and cfg.use_cookies and cfg.get_cgi
    assert cfg.get_image and cfg.any_type and cfg.page_no_duplicate
    assert cfg.limit_time == 60   # limitTime 1 (minute)
    assert len(seeds) == 2        # an IDN seed + csdn (larbin-test.conf:19-20)
    assert seeds[0].startswith("http://哈")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.skipif(
        not os.path.exists(os.path.join(UPSTREAM_DIR, name)),
        reason=f"no upstream {name} in {UPSTREAM_DIR}"))
    for name in ("larbin.conf", "larbin-test.conf")])
def test_shipped_conf_matches_copy(name):
    """The in-repo copy parses to what the upstream file parses to."""
    shipped_cfg, shipped_seeds = parse_larbin_conf(
        _read(os.path.join(UPSTREAM_DIR, name)))
    copy_cfg, copy_seeds = parse_larbin_conf(_read(os.path.join(DATA_DIR, name)))
    assert copy_cfg == shipped_cfg
    if name == "larbin.conf":
        assert copy_seeds == shipped_seeds
    else:   # seeds[0] is the IDN seed, whose host the copy stands in for
        assert len(copy_seeds) == len(shipped_seeds)
        assert copy_seeds[1:] == shipped_seeds[1:]


def test_comments_and_quotes():
    cfg, seeds = parse_larbin_conf(
        'UserAgent "my agent"  # trailing comment\n# full comment\nwaitDuration 5\n')
    assert cfg.user_agent == "my agent"
    assert cfg.wait_duration == 5


def test_unknown_keyword_raises():
    with pytest.raises(ValueError, match="bad configuration"):
        parse_larbin_conf("unknownKey 1\n")


def test_crawl_from_conf(ray_session, tmp_path):
    """End-to-end: a Larbin conf file drives the engine (the reference
    user's switch-over path)."""
    from larbin_ray.pipelines.crawl import ray_crawl_from_conf
    from larbin_ray.sources.synthweb import default_seeds, gen_web

    conf = tmp_path / "my.conf"
    conf.write_text(
        "From me@example.org\nUserAgent larbin_2.6.5\n"
        "pagesConnexions 10\ndnsConnexions 2\ndepthInSite 3\n"
        "depthBySite\nwaitDuration 60\npageNoDuplicate\n"
        + "".join(f"startUrl {u}\n" for u in default_seeds(6))
        + "forbiddenExtensions\n.zip .pdf\nend\n")
    web = gen_web(60, 6, seed=42)
    res = ray_crawl_from_conf(web, str(conf))
    assert res.answers["success"] > 10
    # depthInSite 3 (not the default 5) visibly reduces the crawl
    assert max(r["depth"] for r in res.fetched) <= 3
