from .crawl import run_crawl_pump, direct_crawl, CrawlResult

__all__ = ["run_crawl_pump", "direct_crawl", "CrawlResult"]
